package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/ir"
	"isacmp/internal/workloads"
)

func tinyProgram() *ir.Program {
	p := ir.NewProgram("tinytest")
	a := p.Array("a", ir.F64, 8)
	b := p.Array("b", ir.F64, 8)
	for i := 0; i < 8; i++ {
		a.InitF = append(a.InitF, float64(i))
	}
	i := ir.NewVar("i", ir.I64)
	p.Kernel("copy").Add(&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(8),
		Body: []ir.Stmt{&ir.Store{Arr: b, Index: ir.V(i), Val: ir.Ld(a, ir.V(i))}},
	})
	return p
}

func TestRunAllAnalyses(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		rows, err := Run(tinyProgram(), Experiment{
			PathLength: true, CritPath: true, Scaled: true,
			Windowed: true, WindowSizes: []int{4}, Mix: true, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.PathLen == 0 || r.CP == 0 || r.ScaledCP == 0 {
				t.Fatalf("%s: incomplete row %+v", r.Target, r)
			}
			if len(r.Windows) != 1 || len(r.MixCounts) == 0 {
				t.Fatalf("%s: missing windows or mix", r.Target)
			}
			if r.BranchDensity <= 0 || r.BranchDensity >= 1 {
				t.Fatalf("%s: branch density %v", r.Target, r.BranchDensity)
			}
			// One tracker walks the events for Table 1 and Table 2, yet
			// both keep their sink row: critpath's carries the pass's
			// sampled time, scaledcp's counts the events and no time.
			var names []string
			for _, s := range r.Sinks {
				names = append(names, s.Name)
			}
			if got := strings.Join(names, ","); got != "pathlen,critpath,scaledcp,windowcp,mix,branch" {
				t.Fatalf("parallel %d, %s: sink rows %s", parallel, r.Target, got)
			}
			cp, scaled := r.Sinks[1], r.Sinks[2]
			if scaled.Events != cp.Events || scaled.SampledEvents != 0 || scaled.SampledNs != 0 {
				t.Fatalf("parallel %d, %s: scaledcp row %+v beside critpath row %+v", parallel, r.Target, scaled, cp)
			}
			if parallel == 1 && cp.SampledEvents != cp.Events {
				t.Fatalf("%s: critpath row %+v did not time the joint pass", r.Target, cp)
			}
		}
	}
}

func TestRunGCC12Only(t *testing.T) {
	var gcc12 []cc.Target
	for _, tgt := range cc.Targets() {
		if tgt.Flavor == cc.GCC12 {
			gcc12 = append(gcc12, tgt)
		}
	}
	rows, err := Run(tinyProgram(), Experiment{CritPath: true, Columns: gcc12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Target.Flavor != cc.GCC12 {
			t.Fatalf("non-GCC12 row: %s", r.Target)
		}
	}
}

func TestWriters(t *testing.T) {
	rows, err := Run(tinyProgram(), Experiment{
		PathLength: true, CritPath: true, Scaled: true,
		Windowed: true, WindowSizes: []int{4, 16}, Mix: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WritePathLengths(&sb, "tinytest", rows)
	out := sb.String()
	for _, want := range []string{"copy", "total", "normalised", "AArch64/GCC 9.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("path-length table missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	WriteCritPaths(&sb, "tinytest", rows, false)
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("missing Table 1 label")
	}
	sb.Reset()
	WriteCritPaths(&sb, "tinytest", rows, true)
	if !strings.Contains(sb.String(), "Table 2") {
		t.Error("missing Table 2 label")
	}

	sb.Reset()
	WriteWindowed(&sb, "tinytest", rows)
	if !strings.Contains(sb.String(), "16") {
		t.Error("windowed table missing size 16")
	}

	sb.Reset()
	WriteMix(&sb, "tinytest", rows)
	if !strings.Contains(sb.String(), "branch dens.") {
		t.Error("mix table missing branch density")
	}

	sb.Reset()
	Banner(&sb, "x", "tiny")
	if !strings.Contains(sb.String(), "tiny") {
		t.Error("banner missing scale")
	}
}

func TestSummarise(t *testing.T) {
	rows, err := Run(tinyProgram(), Experiment{PathLength: true})
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarise("tinytest", rows)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	for _, s := range sums {
		if s.RVOverArm <= 0 {
			t.Fatalf("ratio %v", s.RVOverArm)
		}
	}
	var sb strings.Builder
	WriteSummaries(&sb, sums)
	if !strings.Contains(sb.String(), "mean") {
		t.Error("summary missing mean row")
	}
	// Empty input must not panic.
	sb.Reset()
	WriteSummaries(&sb, nil)
}

func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	progs := []*ir.Program{workloads.STREAM(16, 2)}
	if err := WriteArtifacts(dir, progs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"kernelCounts.txt", "basicCPResult.txt", "scaledCPResult.txt", "windowAverages.txt",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", name)
		}
	}
	counts, _ := os.ReadFile(filepath.Join(dir, "kernelCounts.txt"))
	if !strings.Contains(string(counts), "'copy'") {
		t.Errorf("kernelCounts.txt missing copy kernel:\n%s", counts)
	}
	wa, _ := os.ReadFile(filepath.Join(dir, "windowAverages.txt"))
	// GCC 12.2 rows only, one per arch.
	lines := strings.Split(strings.TrimSpace(string(wa)), "\n")
	if len(lines) != 2 {
		t.Errorf("windowAverages.txt rows = %d:\n%s", len(lines), wa)
	}
	for _, l := range lines {
		if !strings.Contains(l, "GCC 12.2") {
			t.Errorf("non-GCC12 row in windowAverages: %s", l)
		}
	}
}

// TestWindowShards pins the sharding rule: a cell's windowed CP gets
// the workers its cells leave idle, and only when that is at least two
// per cell.
func TestWindowShards(t *testing.T) {
	for _, c := range []struct{ workers, cells, want int }{
		{2, 20, 0}, // armed-fanout: the cells saturate the pool
		{5, 20, 0},
		{64, 20, 3},
		{8, 4, 2},
		{7, 4, 0},
		{2, 1, 2},
		{1, 1, 0},
		{8, 0, 0},
	} {
		if got := windowShards(c.workers, c.cells); got != c.want {
			t.Errorf("%d cells on %d workers: %d shards, want %d", c.cells, c.workers, got, c.want)
		}
	}
}
