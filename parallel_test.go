package isacmp

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"isacmp/internal/prof"
	"isacmp/internal/report"
	"isacmp/internal/telemetry"
)

// matrixArtifactsEx runs the full tiny matrix under the given
// experiment and renders the two deterministic artifact forms: the
// text reports exactly as the CLIs print them, and the canonicalized
// run manifest JSON.
func matrixArtifactsEx(t *testing.T, ex MatrixExperiment) (text, manifest []byte) {
	t.Helper()
	progs := Suite(Tiny)
	rows, _, err := RunMatrix(progs, ex)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	m := telemetry.NewManifest("parallel-test", "tiny")
	for i, p := range progs {
		report.WritePathLengths(&buf, p.Name, rows[i])
		report.WriteCritPaths(&buf, p.Name, rows[i], false)
		report.WriteCritPaths(&buf, p.Name, rows[i], true)
		report.WriteWindowed(&buf, p.Name, rows[i])
		report.WriteFusion(&buf, p.Name, rows[i])
		report.AppendRows(m, p.Name, rows[i])
	}
	m.Canonicalize()
	var mbuf bytes.Buffer
	if err := m.Encode(&mbuf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mbuf.Bytes()
}

// TestParallelByteIdentical enforces the execution-path invariance
// contract: the full analysis matrix run sequentially on the batched
// StepN hot path is the reference, and every variant below must
// produce byte-identical report text and byte-identical canonicalized
// manifests — a multi-worker pool (per-cell trace fan-out; windowed CP
// inline on 2 and 5 workers, which the 20 cells saturate, and sharded
// three ways on 64), the fusion-off per-Step reference loop, and the
// resilience watchdogs armed but never firing.
func TestParallelByteIdentical(t *testing.T) {
	base := MatrixExperiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true, Parallel: 1}
	with := func(f func(*MatrixExperiment)) MatrixExperiment {
		ex := base
		f(&ex)
		return ex
	}
	variants := []struct {
		name string
		ex   MatrixExperiment
	}{
		{"parallel=2", with(func(ex *MatrixExperiment) { ex.Parallel = 2 })},
		{"parallel=5", with(func(ex *MatrixExperiment) { ex.Parallel = 5 })},
		{"parallel=64, sharded", with(func(ex *MatrixExperiment) { ex.Parallel = 64 })},
		{"steploop", with(func(ex *MatrixExperiment) { ex.StepLoop = true })},
		{"watchdogs armed", with(func(ex *MatrixExperiment) {
			ex.Parallel, ex.CellTimeout, ex.MaxInstructions, ex.Retries = 2, time.Hour, 1<<62, 2
		})},
	}
	baseText, baseManifest := matrixArtifactsEx(t, base)
	for _, v := range variants {
		text, manifest := matrixArtifactsEx(t, v.ex)
		if !bytes.Equal(baseText, text) {
			t.Errorf("%s: report text differs from the sequential StepN run", v.name)
		}
		if !bytes.Equal(baseManifest, manifest) {
			t.Errorf("%s: canonicalized manifest differs from the sequential StepN run", v.name)
		}
	}
}

// TestRunInstrumentedParallelIdentical: the instrumented single-run
// path (RunConfig.Parallel) must also be invariant — same Result, and
// byte-identical canonicalized manifest — whether the sinks run
// inline behind the tee or concurrently behind the fan-out.
func TestRunInstrumentedParallelIdentical(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	sel := Analyses{
		PathLength: true, CritPath: true, ScaledCritPath: true,
		Windowed: true, Mix: true, Branches: true,
	}

	run := func(parallel int) (*Result, []byte) {
		res, rec, err := bin.RunInstrumented(RunConfig{Analyses: sel, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		m := NewRunManifest("test", "tiny")
		m.Runs = append(m.Runs, rec)
		m.Canonicalize()
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}

	seqRes, seqManifest := run(1)
	parRes, parManifest := run(4)
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("results differ:\nsequential %+v\nparallel   %+v", seqRes, parRes)
	}
	if !bytes.Equal(seqManifest, parManifest) {
		t.Fatalf("canonicalized manifests differ:\n%s\nvs\n%s", seqManifest, parManifest)
	}
}

// TestRunInstrumentedReleasesShards: a run that fails returns before
// its sharded windowed CP's Results, and must still stop the shard
// goroutines behind it.
func TestRunInstrumentedReleasesShards(t *testing.T) {
	bin, err := Compile(Workload("lbm", Small), Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cfg := RunConfig{Analyses: Analyses{Windowed: true}, Parallel: 4, MaxInstructions: 50_000}
		if _, _, err := bin.RunInstrumented(cfg); err == nil {
			t.Fatal("a run over its instruction budget must fail")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive three failed runs", runtime.NumGoroutine()-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunInstrumentedParallelWithModel: the fan-out path must feed
// trace-driven timing models the complete stream — cycle counts match
// the sequential tee run exactly.
func TestRunInstrumentedParallelWithModel(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: AArch64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []string{"inorder", "ooo"} {
		_, seqRec, err := bin.RunInstrumented(RunConfig{Core: core, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, parRec, err := bin.RunInstrumented(RunConfig{Core: core, Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seqRec.Core.Instructions != parRec.Core.Instructions || seqRec.Core.Cycles != parRec.Core.Cycles {
			t.Fatalf("%s: sequential %d insts/%d cycles, parallel %d insts/%d cycles",
				core, seqRec.Core.Instructions, seqRec.Core.Cycles,
				parRec.Core.Instructions, parRec.Core.Cycles)
		}
	}
}

// TestProfiledByteIdentical enforces the -profile pass-through
// contract: running the matrix with the span profiler live — at one
// worker and at several — must change no report byte and no
// canonicalized manifest byte, while the profiler itself captures a
// plausible timeline (spans for every stage on valid lanes).
func TestProfiledByteIdentical(t *testing.T) {
	progs := Suite(Tiny)
	run := func(parallel int, p *prof.Profiler) (text, manifest []byte) {
		ex := MatrixExperiment{
			PathLength: true, CritPath: true, Scaled: true, Windowed: true,
			Parallel: parallel, Prof: p,
		}
		rows, _, err := RunMatrix(progs, ex)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		m := telemetry.NewManifest("parallel-test", "tiny")
		for i, pr := range progs {
			report.WritePathLengths(&buf, pr.Name, rows[i])
			report.WriteCritPaths(&buf, pr.Name, rows[i], false)
			report.WriteCritPaths(&buf, pr.Name, rows[i], true)
			report.WriteWindowed(&buf, pr.Name, rows[i])
			report.AppendRows(m, pr.Name, rows[i])
		}
		m.Canonicalize()
		var mbuf bytes.Buffer
		if err := m.Encode(&mbuf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), mbuf.Bytes()
	}

	baseText, baseManifest := run(1, nil)
	for _, workers := range []int{1, 3} {
		p := prof.New(workers, 0)
		text, manifest := run(workers, p)
		if !bytes.Equal(baseText, text) {
			t.Fatalf("profile on, parallel=%d: report text differs from unprofiled", workers)
		}
		if !bytes.Equal(baseManifest, manifest) {
			t.Fatalf("profile on, parallel=%d: canonicalized manifest differs from unprofiled", workers)
		}
		spans := p.Spans()
		if len(spans) == 0 {
			t.Fatalf("parallel=%d: profiler captured no spans", workers)
		}
		stages := map[string]bool{}
		for _, s := range spans {
			if s.Lane < 0 || s.Lane >= p.Lanes() {
				t.Fatalf("span %+v on invalid lane (lanes=%d)", s, p.Lanes())
			}
			if s.Cell == "" {
				t.Fatalf("span %+v missing its cell", s)
			}
			stages[s.Name] = true
		}
		for _, want := range []string{"setup", "simulate", "deliver", "sink:pathlen", "sink:windowcp"} {
			if !stages[want] {
				t.Errorf("parallel=%d: no %q spans captured (got %v)", workers, want, stages)
			}
		}
	}
}
