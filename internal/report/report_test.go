package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// run is RunSuite on one program: its row per target.
func run(prog *ir.Program, ex Experiment) ([]Row, error) {
	all, _, err := RunSuite([]*ir.Program{prog}, ex)
	if err != nil {
		return nil, err
	}
	return all[0], nil
}

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
		rows, err := run(tinyProgram(), Experiment{
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
			// One tracker walks the events for Table 1, Table 2 and
			// Figure 2, yet each keeps its sink row: critpath's carries
			// the pass's time, scaledcp's and windowcp's count the
			// events and no time.
			var names []string
			for _, s := range r.Sinks {
				names = append(names, s.Name)
			}
			if got := strings.Join(names, ","); got != "pathlen,critpath,scaledcp,windowcp,mix,branch" {
				t.Fatalf("parallel %d, %s: sink rows %s", parallel, r.Target, got)
			}
			cp := r.Sinks[1]
			for _, carried := range r.Sinks[2:4] {
				if carried.Events != cp.Events || carried.SampledEvents != 0 || carried.SampledNs != 0 {
					t.Fatalf("parallel %d, %s: %s row %+v beside critpath row %+v", parallel, r.Target, carried.Name, carried, cp)
				}
			}
			if cp.SampledEvents != cp.Events {
				t.Fatalf("parallel %d, %s: critpath row %+v did not time the joint pass", parallel, r.Target, cp)
			}
		}
	}
}

// TestLoneSinkTimed: a cell with one consumer runs it behind the tee
// at -parallel 2 as at 1, and its sink row carries the time of every
// event.
func TestLoneSinkTimed(t *testing.T) {
	rows, err := run(workloads.ByName("stream", workloads.Tiny), Experiment{Windowed: true, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Sinks) != 1 {
			t.Fatalf("%s: sink rows %+v, want windowcp alone", r.Target, r.Sinks)
		}
		s := r.Sinks[0]
		if s.Name != "windowcp" || s.Events != r.PathLen || s.SampledEvents != s.Events || s.SampledNs == 0 {
			t.Fatalf("%s: lone sink row %+v over %d events is not timed", r.Target, s, r.PathLen)
		}
	}
}

// TestEmulationTrace: the emulation core's tracer sees the
// architectural stream, fused or not, on the tee and on the fan-out,
// and times the i-th retirement as dispatched and issued at cycle i
// and completed at i+1.
func TestEmulationTrace(t *testing.T) {
	prog := workloads.ByName("stream", workloads.Tiny)
	for _, parallel := range []int{1, 2} {
		for _, fus := range []fusion.Config{{}, {RV64: true, A64: true, Rules: fusion.AllRules}} {
			rows, err := run(prog, Experiment{
				PathLength: true, Mix: true, Parallel: parallel, Fusion: fus,
				Trace: func() *telemetry.PipelineTrace { return telemetry.NewPipelineTrace(1<<13, 1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				tr := r.Trace
				if tr == nil || tr.Observed() != r.PathLen {
					t.Fatalf("parallel %d, fusion %q, %s: trace %+v, want %d events observed",
						parallel, fus.Spec(), r.Target, tr, r.PathLen)
				}
				spans := tr.Spans()
				if uint64(len(spans)) != r.PathLen {
					t.Fatalf("parallel %d, fusion %q, %s: %d spans, want %d",
						parallel, fus.Spec(), r.Target, len(spans), r.PathLen)
				}
				for i, s := range spans {
					if s.Seq != uint64(i) || s.Dispatch != s.Seq || s.Issue != s.Seq || s.Complete != s.Seq+1 {
						t.Fatalf("parallel %d, fusion %q, %s: span %d = %+v",
							parallel, fus.Spec(), r.Target, i, s)
					}
				}
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
	rows, err := run(tinyProgram(), Experiment{CritPath: true, Columns: gcc12})
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
	rows, err := run(tinyProgram(), Experiment{
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
	rows, err := run(tinyProgram(), Experiment{PathLength: true})
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

// artifactExperiment is what isacmp artifacts runs: the four analyses
// the artifact files print, on all four targets.
var artifactExperiment = Experiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true}

func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	progs := []*ir.Program{workloads.STREAM(16, 2)}
	all, _, err := RunSuite(progs, artifactExperiment)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteArtifacts(dir, progs, all); err != nil {
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

// TestArtifactsLatencyModel checks that the experiment's latency model
// reaches scaledCPResult.txt: each line carries its row's scaled CP,
// which a slow FP adder moves away from the TX2 model's.
func TestArtifactsLatencyModel(t *testing.T) {
	progs := []*ir.Program{workloads.STREAM(16, 2)}
	lat, err := simeng.ParseLatencyConfig(strings.NewReader("int-simple: 7\nfp-add: 50\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := artifactExperiment
	ex.Latencies = lat
	custom, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	tx2, _, err := RunSuite(progs, artifactExperiment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteArtifacts(dir, progs, custom); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scaledCPResult.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range custom[0] {
		if r.ScaledCP == tx2[0][i].ScaledCP {
			t.Errorf("%s: scaled CP %d is the TX2 model's", r.Target, r.ScaledCP)
		}
		if want := fmt.Sprintf("%s: path=%d cp=%d ", r.Target, r.PathLen, r.ScaledCP); !strings.Contains(string(data), want) {
			t.Errorf("scaledCPResult.txt lacks %q:\n%s", want, data)
		}
	}
}
