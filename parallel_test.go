package isacmp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"isacmp/internal/ir"
	"isacmp/internal/prof"
	"isacmp/internal/report"
	"isacmp/internal/telemetry"
)

// matrixArtifactsEx runs the full tiny matrix under the given
// experiment and renders the two deterministic artifact forms: the
// text reports exactly as the CLIs print them, and the canonicalized
// run manifest JSON.
func matrixArtifactsEx(t *testing.T, ex report.Experiment) (text, manifest []byte) {
	t.Helper()
	progs := Suite(Tiny)
	rows, _, err := report.RunSuite(progs, ex)
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
// manifests — a multi-worker pool (per-cell trace fan-out on 2, 5 and
// 64 workers), a fusion-off unbatched run (one Step per batch, every
// event delivered through the tee's and each analysis's Event), and
// the resilience watchdogs armed but never firing.
func TestParallelByteIdentical(t *testing.T) {
	base := report.Experiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true, Parallel: 1}
	with := func(f func(*report.Experiment)) report.Experiment {
		ex := base
		f(&ex)
		return ex
	}
	variants := []struct {
		name string
		ex   report.Experiment
	}{
		{"parallel=2", with(func(ex *report.Experiment) { ex.Parallel = 2 })},
		{"parallel=5", with(func(ex *report.Experiment) { ex.Parallel = 5 })},
		{"parallel=64", with(func(ex *report.Experiment) { ex.Parallel = 64 })},
		{"unbatched", unbatched(base)},
		{"watchdogs armed", with(func(ex *report.Experiment) {
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

// runCell runs one (workload, target) cell through the matrix runner
// and returns its row with the canonical manifest of that row.
func runCell(t *testing.T, prog *ir.Program, tgt Target, ex report.Experiment) (report.Row, []byte) {
	t.Helper()
	ex.Columns = []Target{tgt}
	all, _, err := report.RunSuite([]*ir.Program{prog}, ex)
	if err != nil {
		t.Fatal(err)
	}
	row := all[0][0]
	if row.Failed() {
		t.Fatalf("%s/%s failed: %s", prog.Name, tgt, row.Failure.Message)
	}
	m := telemetry.NewManifest("test", "tiny")
	report.AppendRows(m, prog.Name, all[0])
	m.Canonicalize()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return row, buf.Bytes()
}

// TestRunCellParallelIdentical: one cell must be invariant too — the
// same row, and a byte-identical canonicalized manifest — whether its
// sinks run inline behind the tee or concurrently behind the fan-out
// on four workers.
func TestRunCellParallelIdentical(t *testing.T) {
	prog := Workload("stream", Tiny)
	tgt := Target{Arch: RV64, Flavor: GCC12}
	ex := report.Experiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true, Mix: true}

	run := func(parallel int) (report.Row, []byte) {
		ex.Parallel = parallel
		row, manifest := runCell(t, prog, tgt, ex)
		// Wall time and sink timings vary run to run; the manifest
		// comparison covers the sink names and event counts.
		row.WallSeconds, row.Sinks = 0, nil
		return row, manifest
	}

	seqRow, seqManifest := run(1)
	parRow, parManifest := run(4)
	if !reflect.DeepEqual(seqRow, parRow) {
		t.Fatalf("rows differ:\nsequential %+v\nparallel   %+v", seqRow, parRow)
	}
	if !bytes.Equal(seqManifest, parManifest) {
		t.Fatalf("canonicalized manifests differ:\n%s\nvs\n%s", seqManifest, parManifest)
	}
}

// TestRunCellParallelWithModel: the fan-out path must feed trace-driven
// timing models the complete stream — cycle counts match the
// sequential tee run exactly.
func TestRunCellParallelWithModel(t *testing.T) {
	prog := Workload("stream", Tiny)
	tgt := Target{Arch: AArch64, Flavor: GCC12}
	for _, core := range []string{"inorder", "ooo"} {
		seq, _ := runCell(t, prog, tgt, report.Experiment{Core: core, Parallel: 1})
		par, _ := runCell(t, prog, tgt, report.Experiment{Core: core, Parallel: 4})
		if seq.Core.Model != core || seq.Core.Cycles == 0 {
			t.Fatalf("%s: core block %+v does not come from the model", core, seq.Core)
		}
		if seq.Core.Instructions != par.Core.Instructions || seq.Core.Cycles != par.Core.Cycles {
			t.Fatalf("%s: sequential %d insts/%d cycles, parallel %d insts/%d cycles",
				core, seq.Core.Instructions, seq.Core.Cycles,
				par.Core.Instructions, par.Core.Cycles)
		}
	}
}

// TestProfiledByteIdentical enforces the -profile pass-through
// contract: running the matrix with the span profiler live — at one
// worker and at several — must change no report byte and no
// canonicalized manifest byte, while the profiler itself captures a
// plausible timeline: spans for every stage on valid lanes, and setup
// and simulate spans for every cell. It covers the paper's four
// analyses and the run subcommand's configuration (the out-of-order
// model with mix and branch). A carried sink row has no time of its
// own, so it has no span: with all four analyses, the critical-path
// tracker's walk carries the scaled and the windowed analyses.
func TestProfiledByteIdentical(t *testing.T) {
	progs := Suite(Tiny)
	run := func(ex report.Experiment, parallel int, p *prof.Profiler) (text, manifest []byte) {
		ex.Parallel, ex.Prof = parallel, p
		rows, _, err := report.RunSuite(progs, ex)
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
			report.WriteMix(&buf, pr.Name, rows[i])
			report.AppendRows(m, pr.Name, rows[i])
		}
		m.Canonicalize()
		var mbuf bytes.Buffer
		if err := m.Encode(&mbuf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), mbuf.Bytes()
	}

	for _, c := range []struct {
		name           string
		ex             report.Experiment
		sinks, carried []string
	}{
		{"matrix", report.Experiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true},
			[]string{"sink:pathlen", "sink:critpath"}, []string{"sink:scaledcp", "sink:windowcp"}},
		{"run", report.Experiment{Core: "ooo", Mix: true},
			[]string{"sink:mix", "sink:branch", "sink:ooo-model"}, nil},
	} {
		baseText, baseManifest := run(c.ex, 1, nil)
		for _, workers := range []int{1, 3} {
			p := prof.New(workers, 0)
			text, manifest := run(c.ex, workers, p)
			if !bytes.Equal(baseText, text) {
				t.Fatalf("%s, profile on, parallel=%d: report text differs from unprofiled", c.name, workers)
			}
			if !bytes.Equal(baseManifest, manifest) {
				t.Fatalf("%s, profile on, parallel=%d: canonicalized manifest differs from unprofiled", c.name, workers)
			}
			spans := p.Spans()
			if len(spans) == 0 {
				t.Fatalf("%s, parallel=%d: profiler captured no spans", c.name, workers)
			}
			stages := map[string]bool{}
			cells := map[string]bool{}
			for _, s := range spans {
				if s.Lane < 0 || s.Lane >= p.Lanes() {
					t.Fatalf("span %+v on invalid lane (lanes=%d)", s, p.Lanes())
				}
				if s.Cell == "" {
					t.Fatalf("span %+v missing its cell", s)
				}
				stages[s.Name] = true
				cells[s.Name+" "+s.Cell] = true
			}
			for _, want := range append([]string{"setup", "simulate", "deliver"}, c.sinks...) {
				if !stages[want] {
					t.Errorf("%s, parallel=%d: no %q spans captured (got %v)", c.name, workers, want, stages)
				}
			}
			for _, carried := range c.carried {
				if stages[carried] {
					t.Errorf("%s, parallel=%d: a carried row has %q spans (got %v)", c.name, workers, carried, stages)
				}
			}
			for _, pr := range progs {
				for _, tgt := range Targets() {
					for _, stage := range []string{"setup", "simulate"} {
						if cell := pr.Name + "/" + tgt.String(); !cells[stage+" "+cell] {
							t.Errorf("%s, parallel=%d: no %s span for %s", c.name, workers, stage, cell)
						}
					}
				}
			}
		}
	}
}

// TestProfileSpansWithinWall: on the tee, deliver is the run loop's
// hand-off alone and each consumer's time is one sink span, so no
// consumer is counted twice and a cell's simulate, deliver and sink
// spans sum to no more than its wall time.
func TestProfileSpansWithinWall(t *testing.T) {
	progs := Suite(Tiny)
	p := prof.New(1, 0)
	rows, _, err := report.RunSuite(progs, report.Experiment{
		PathLength: true, CritPath: true, Scaled: true, Windowed: true, Mix: true,
		Parallel: 1, Prof: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dropped() != 0 {
		t.Fatalf("profiler dropped %d spans", p.Dropped())
	}
	spanNs := map[string]int64{}
	for _, s := range p.Spans() {
		switch s.Stage {
		case prof.StageSimulate, prof.StageDeliver, prof.StageSink:
			spanNs[s.Cell] += s.Dur
		}
	}
	for i, pr := range progs {
		for _, r := range rows[i] {
			cell := pr.Name + "/" + r.Target.String()
			wallNs := int64(r.WallSeconds * 1e9)
			if spanNs[cell] == 0 || spanNs[cell] > wallNs {
				t.Errorf("%s: simulate, deliver and sink spans sum to %d ns, want 1 to %d (the cell's wall time)",
					cell, spanNs[cell], wallNs)
			}
		}
	}
}
