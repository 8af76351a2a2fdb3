package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// TestFusionWriterSilent: the fusion table must contribute no byte
// when no healthy row carries a fusion block — the writer can sit
// unconditionally after every table without disturbing fusion-off
// report text.
func TestFusionWriterSilent(t *testing.T) {
	rows := []Row{
		{Target: cc.Target{Arch: isa.RV64, Flavor: cc.GCC12}, PathLen: 100},
		{Target: cc.Target{Arch: isa.AArch64, Flavor: cc.GCC12}, PathLen: 90},
	}
	var buf bytes.Buffer
	WriteFusion(&buf, "stream", rows)
	if buf.Len() != 0 {
		t.Fatalf("fusion-off rows produced output:\n%s", buf.Bytes())
	}
}

// TestFusionWriterMixedRows: under -fusion=rv64 only the RV64 rows
// carry fusion blocks; the AArch64 rows must still appear, marked
// fusion-off, and rules that never fired must not clutter the hits
// column.
func TestFusionWriterMixedRows(t *testing.T) {
	rows := []Row{
		{
			Target: cc.Target{Arch: isa.RV64, Flavor: cc.GCC12},
			Fusion: &telemetry.FusionStats{
				Spec: "rv64", EventsIn: 100, EventsOut: 80,
				Rules: []telemetry.FusionRuleJSON{
					{Rule: "loadpair", Hits: 15},
					{Rule: "slliadd", Hits: 5},
					{Rule: "luiaddi", Hits: 0},
				},
			},
		},
		{Target: cc.Target{Arch: isa.AArch64, Flavor: cc.GCC12}, PathLen: 90},
	}
	var buf bytes.Buffer
	WriteFusion(&buf, "stream", rows)
	out := buf.String()
	for _, want := range []string{
		"effective path length with macro-op fusion",
		"loadpair=15 slliadd=5",
		"0.8000",
		"(fusion off)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fusion table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "luiaddi") {
		t.Errorf("zero-hit rule printed in hits column:\n%s", out)
	}
}

// TestFusionOffRecordOmitted: a fusion-off experiment must produce
// rows without fusion blocks and manifest records without a fusion
// key — the byte-identity contract's manifest half.
func TestFusionOffRecordOmitted(t *testing.T) {
	prog := workloads.ByName("stream", workloads.Tiny)
	rows, err := run(prog, Experiment{PathLength: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Fusion != nil {
			t.Fatalf("%s: fusion-off row carries a fusion block", r.Target)
		}
	}
	m := telemetry.NewManifest("test", "tiny")
	AppendRows(m, "stream", rows)
	m.Canonicalize()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"fusion"`)) {
		t.Fatal("fusion-off manifest contains a fusion key")
	}
}

// TestFusionExperimentRecords: a fusion-on experiment attaches the
// pass only to matching architectures and survives canonicalization —
// the fusion block is deterministic provenance, not volatile timing.
func TestFusionExperimentRecords(t *testing.T) {
	prog := workloads.ByName("stream", workloads.Tiny)
	rows, err := run(prog, Experiment{
		PathLength: true, CritPath: true,
		Fusion:   fusion.Config{RV64: true, Rules: fusion.AllRules},
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Target.Arch {
		case isa.RV64:
			if r.Fusion == nil {
				t.Fatalf("%s: RV64 row missing its fusion block", r.Target)
			}
			if r.Fusion.Spec != "rv64" {
				t.Fatalf("%s: spec %q, want rv64", r.Target, r.Fusion.Spec)
			}
			if r.Fusion.EventsOut >= r.Fusion.EventsIn {
				t.Fatalf("%s: no pairs fused (%d -> %d)", r.Target, r.Fusion.EventsIn, r.Fusion.EventsOut)
			}
		default:
			if r.Fusion != nil {
				t.Fatalf("%s: -fusion=rv64 attached to a non-RV64 row", r.Target)
			}
		}
	}
	m := telemetry.NewManifest("test", "tiny")
	AppendRows(m, "stream", rows)
	m.Canonicalize()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"fusion"`)) {
		t.Fatal("canonicalization stripped the fusion block")
	}
}

// TestFusionWithoutAnalysesParallel: a fusion run with no analyses and
// no registry builds the same sink chain at every -parallel value, so
// the sequential rows carry the same fusion blocks as the fan-out's.
func TestFusionWithoutAnalysesParallel(t *testing.T) {
	both, err := fusion.ParseSpec("both")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*ir.Program{workloads.STREAM(200, 1)}
	var fused [2][]Row
	for i, parallel := range []int{1, 2} {
		all, _, err := RunSuite(progs, Experiment{Fusion: both, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		fused[i] = all[0]
	}
	for i, seq := range fused[0] {
		par := fused[1][i]
		if seq.Fusion == nil || par.Fusion == nil {
			t.Fatalf("%s: fusion block at -parallel 1 %v, at 2 %v", seq.Target, seq.Fusion, par.Fusion)
		}
		if !reflect.DeepEqual(seq.Fusion, par.Fusion) || seq.PathLen != par.PathLen {
			t.Errorf("%s: -parallel 1 %+v (path %d), -parallel 2 %+v (path %d)", seq.Target, seq.Fusion, seq.PathLen, par.Fusion, par.PathLen)
		}
	}
}
