package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"isacmp/internal/cc"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
)

// WriteArtifacts reproduces the output layout of the paper's artifact
// (appendix A.6) from the rows RunSuite returned for progs with the
// path-length, critical-path, scaled and windowed analyses on: a
// results directory containing kernelCounts.txt (cumulative
// instruction count per source section), basicCPResult.txt and
// scaledCPResult.txt (critical-path data and ILP per benchmark) and
// windowAverages.txt (comma-separated mean CP length per window size,
// ascending, one line per benchmark+target). FAILED cells are left
// out, as the tables leave them out.
func WriteArtifacts(dir string, progs []*ir.Program, all [][]Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var kernelCounts, basicCP, scaledCP, windowAvg strings.Builder

	for pi, p := range progs {
		rows := healthy(all[pi])

		fmt.Fprintf(&kernelCounts, "# %s\n", p.Name)
		for _, r := range rows {
			fmt.Fprintf(&kernelCounts, "%s: {", r.Target)
			for i, rc := range r.Regions {
				if i > 0 {
					kernelCounts.WriteString(", ")
				}
				fmt.Fprintf(&kernelCounts, "'%s': %d", rc.Name, rc.Count)
			}
			fmt.Fprintf(&kernelCounts, "}\n")
		}
		var baseline float64
		for _, r := range rows {
			if r.Target.Flavor == cc.GCC9 && r.Target.Arch == isa.AArch64 {
				baseline = float64(r.PathLen)
			}
		}
		if baseline > 0 {
			fmt.Fprintf(&kernelCounts, "normalised:")
			for _, r := range rows {
				fmt.Fprintf(&kernelCounts, " %.4f", float64(r.PathLen)/baseline)
			}
			fmt.Fprintln(&kernelCounts)
		}
		fmt.Fprintln(&kernelCounts)

		fmt.Fprintf(&basicCP, "# %s\n", p.Name)
		for _, r := range rows {
			fmt.Fprintf(&basicCP, "%s: path=%d cp=%d ilp=%.2f runtime_ms=%.6f\n",
				r.Target, r.PathLen, r.CP, r.ILP, r.Runtime*1e3)
		}
		fmt.Fprintln(&basicCP)

		fmt.Fprintf(&scaledCP, "# %s\n", p.Name)
		for _, r := range rows {
			fmt.Fprintf(&scaledCP, "%s: path=%d cp=%d ilp=%.2f runtime_ms=%.6f\n",
				r.Target, r.PathLen, r.ScaledCP, r.ScaledILP, r.ScaledRuntime*1e3)
		}
		fmt.Fprintln(&scaledCP)

		for _, r := range rows {
			if r.Target.Flavor != cc.GCC12 {
				continue
			}
			vals := make([]string, 0, len(r.Windows))
			for _, w := range r.Windows {
				vals = append(vals, fmt.Sprintf("%.3f", w.MeanCP))
			}
			fmt.Fprintf(&windowAvg, "%s/%s,%s\n", p.Name, r.Target, strings.Join(vals, ","))
		}
	}

	files := map[string]string{
		"kernelCounts.txt":   kernelCounts.String(),
		"basicCPResult.txt":  basicCP.String(),
		"scaledCPResult.txt": scaledCP.String(),
		"windowAverages.txt": windowAvg.String(),
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
