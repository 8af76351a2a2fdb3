package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"isacmp/internal/cc"
	"isacmp/internal/durable"
	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// -update regenerates the golden files from the current output:
//
//	go test ./internal/report -run TestGolden -update
//
// Inspect the diff before committing — the goldens pin the paper
// artifacts (Table 1, Table 2, Figure 1, Figure 2) and the manifest
// byte format for a small deterministic workload.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenRows runs the stream benchmark at tiny scale with every
// analysis — the smallest fully deterministic configuration that
// exercises all four paper artifacts.
func goldenRows(t *testing.T) []Row {
	t.Helper()
	prog := workloads.ByName("stream", workloads.Tiny)
	if prog == nil {
		t.Fatal("stream workload missing")
	}
	rows, err := run(prog, Experiment{
		PathLength: true, CritPath: true, Scaled: true, Windowed: true,
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := durable.WriteFileAtomic(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/report -run TestGolden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden output.\n-- got --\n%s\n-- want --\n%s", name, got, want)
	}
}

// TestGoldenFigure1 pins the per-kernel path-length table and the
// cross-target ratio summary.
func TestGoldenFigure1(t *testing.T) {
	rows := goldenRows(t)
	var buf bytes.Buffer
	WritePathLengths(&buf, "stream", rows)
	WriteSummaries(&buf, Summarise("stream", rows))
	checkGolden(t, "figure1_stream_tiny.txt", buf.Bytes())
}

// TestGoldenTable1 pins the critical path / ILP / ideal-runtime table.
func TestGoldenTable1(t *testing.T) {
	rows := goldenRows(t)
	var buf bytes.Buffer
	WriteCritPaths(&buf, "stream", rows, false)
	checkGolden(t, "table1_stream_tiny.txt", buf.Bytes())
}

// TestGoldenTable2 pins the latency-scaled variant.
func TestGoldenTable2(t *testing.T) {
	rows := goldenRows(t)
	var buf bytes.Buffer
	WriteCritPaths(&buf, "stream", rows, true)
	checkGolden(t, "table2_stream_tiny.txt", buf.Bytes())
}

// TestGoldenFigure2 pins the windowed-CP series (GCC 12.2 rows, as
// the paper plots it).
func TestGoldenFigure2(t *testing.T) {
	rows := goldenRows(t)
	gcc12 := rows[:0:0]
	for _, r := range rows {
		if r.Target.Flavor == cc.GCC12 {
			gcc12 = append(gcc12, r)
		}
	}
	var buf bytes.Buffer
	WriteWindowed(&buf, "stream", gcc12)
	checkGolden(t, "figure2_stream_tiny.txt", buf.Bytes())
}

// goldenFusionRows is goldenRows with every fusion rule live on both
// architectures — the configuration behind the fusion goldens.
func goldenFusionRows(t *testing.T) []Row {
	t.Helper()
	prog := workloads.ByName("stream", workloads.Tiny)
	if prog == nil {
		t.Fatal("stream workload missing")
	}
	rows, err := run(prog, Experiment{
		PathLength: true, CritPath: true, Scaled: true, Windowed: true,
		Fusion:   fusion.Config{RV64: true, A64: true, Rules: fusion.AllRules},
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestGoldenFusionTable pins the fusion-on Table 1 numbers (the fused
// machine's critical paths) together with the effective-path-length
// table and its per-rule hit counts.
func TestGoldenFusionTable(t *testing.T) {
	rows := goldenFusionRows(t)
	var buf bytes.Buffer
	WriteCritPaths(&buf, "stream", rows, false)
	WriteFusion(&buf, "stream", rows)
	checkGolden(t, "table1_fusion_stream_tiny.txt", buf.Bytes())
}

// TestGoldenFusionManifest pins the canonicalized manifest with the
// per-run fusion blocks — spec, event counts and per-rule hits are
// deterministic, so they survive canonicalization.
func TestGoldenFusionManifest(t *testing.T) {
	rows := goldenFusionRows(t)
	m := telemetry.NewManifest("golden", "tiny")
	AppendRows(m, "stream", rows)
	m.Canonicalize()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "manifest_fusion_stream_tiny.json", buf.Bytes())
}

// TestGoldenManifest pins the canonicalized -json manifest document —
// the machine-readable byte format downstream tooling diffes. Every
// volatile field (timings, host, scheduler block) is canonicalized
// away; what remains must be stable across machines, Go versions and
// -parallel values.
func TestGoldenManifest(t *testing.T) {
	rows := goldenRows(t)
	m := telemetry.NewManifest("golden", "tiny")
	AppendRows(m, "stream", rows)
	m.Canonicalize()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "manifest_stream_tiny.json", buf.Bytes())
}

// TestGoldenRunManifest pins the canonicalized manifest of the run
// subcommand's configuration: STREAM at tiny scale on all four
// targets, the out-of-order model with the L1D cache, mix and branch,
// and a metrics registry whose snapshot Finish attaches. The run
// counters come from the run-metrics consumer, behind the tee at
// -parallel 1 and on the fan-out at 2, and must match on both.
func TestGoldenRunManifest(t *testing.T) {
	manifest := func(parallel int) []byte {
		reg := telemetry.NewRegistry()
		start := time.Now()
		all, _, err := RunSuite([]*ir.Program{workloads.ByName("stream", workloads.Tiny)}, Experiment{
			Mix: true, Core: "ooo", Cache: true, Metrics: reg, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := telemetry.NewManifest("run", "tiny")
		AppendRows(m, "stream", all[0])
		m.Finish(start, reg)
		m.Canonicalize()
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := manifest(1)
	checkGolden(t, "manifest_run_stream_tiny.json", seq)
	if par := manifest(2); !bytes.Equal(par, seq) {
		t.Errorf("parallel 2 manifest differs from parallel 1:\n%s\nvs\n%s", par, seq)
	}
}
