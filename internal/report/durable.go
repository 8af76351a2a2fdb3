package report

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"

	"isacmp/internal/cc"
	"isacmp/internal/durable"
	"isacmp/internal/ir"
	"isacmp/internal/telemetry"
)

// This file is the report layer's side of the durability contract:
// how a cell is content-addressed, how its canonical result payload
// (the Row, counters included) is journaled, and how a journal or
// cache hit is replayed back into a live matrix byte-identically.

// analysisSpec canonically serializes every experiment knob that can
// change a cell's result: the analysis selection, the core and cache
// models, window geometry, latency model, retirement budget, and
// whether metrics counters are collected. Execution-strategy knobs
// (Parallel, StepLoop) are deliberately excluded — the PR 2
// byte-identity contract guarantees they cannot change a result — as
// are pure observers (progress, status, profiler, flight recorder) and
// the target columns, which the key already names. Fault-injection
// hooks poison the spec so an injected run can never seed the cache
// for a clean one.
func analysisSpec(ex Experiment) string {
	model := ex.Core
	if model == "" {
		model = "emulation"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "analysis/v1 pl=%t cp=%t sc=%t win=%t mix=%t core=%s cache=%t",
		ex.PathLength, ex.CritPath, ex.Scaled, ex.Windowed, ex.Mix, model, ex.Cache)
	fmt.Fprintf(&b, " sizes=%v stride=%d maxinstr=%d metrics=%t",
		ex.WindowSizes, ex.WindowStride, ex.MaxInstructions, ex.Metrics != nil)
	if ex.Latencies != nil {
		fmt.Fprintf(&b, " lat=%v", *ex.Latencies)
	}
	if ex.WrapMachine != nil || ex.WrapSink != nil {
		fmt.Fprintf(&b, " wrapped=true")
	}
	return b.String()
}

// cellHash content-addresses one (workload, target) cell: engine
// version, workload name, target, the compiled ELF bytes the machine
// actually loads, the analysis spec and the fusion spec. Compiling
// for the hash costs microseconds against the cell's simulation and
// is exactly what makes the address honest — a compiler change
// invalidates the cache with no versioning ceremony.
func cellHash(prog *ir.Program, tgt cc.Target, ex Experiment) (string, error) {
	compiled, err := cc.Compile(prog, tgt)
	if err != nil {
		return "", err
	}
	return durable.KeyInput{
		Engine:   durable.EngineVersion,
		Workload: prog.Name,
		Target:   tgt.String(),
		Code:     compiled.File.Write(),
		Analysis: analysisSpec(ex),
		Fusion:   ex.Fusion.Spec(),
	}.Hash(), nil
}

// journalFinished journals a retired cell's canonical Row (and files
// it in the content cache). Journal I/O failure is survived inside
// durable; an unmarshalable row is a programming error surfaced in
// the log.
func journalFinished(ex Experiment, workload, target, hash string, row *Row, fromCache bool, clog *slog.Logger) {
	if ex.Durable == nil || hash == "" {
		return
	}
	data, err := json.Marshal(row)
	if err != nil {
		clog.Warn("durable: row encode failed — cell not journaled", "err", err)
		return
	}
	ex.Durable.CellFinished(workload, target, hash, data, fromCache)
}

// journalFailed journals a terminal cell failure. Cancellation-caused
// failures (matrix cancelled, drain in progress) are never journaled:
// they must re-run on resume.
func journalFailed(ex Experiment, workload, target, hash string, row *Row, clog *slog.Logger) {
	if ex.Durable == nil || hash == "" {
		return
	}
	data, err := json.Marshal(row)
	if err != nil {
		clog.Warn("durable: failed-row encode failed — cell not journaled", "err", err)
		return
	}
	ex.Durable.CellFailed(workload, target, hash, data)
}

// replayRow reconstructs a cell's Row from a durable hit: the payload
// unmarshals back into the exact Row the original run computed, its
// counter delta is re-applied to the registry, the status board is
// driven through the same terminal transition, and a cache hit is
// journaled into this run's journal so a resume of *this* run replays
// it too. Returns ok=false when the payload is unusable (the cell
// then recomputes).
func replayRow(hit *durable.Hit, hash string, prog *ir.Program, tgt cc.Target, ex Experiment, clog *slog.Logger) (Row, bool) {
	var row Row
	if err := json.Unmarshal(hit.Payload, &row); err != nil {
		clog.Warn("durable: replay payload rejected — re-running cell",
			"source", hit.Source, "err", err)
		return Row{}, false
	}
	if row.Target != tgt || row.Failed() != hit.Failed {
		clog.Warn("durable: replay payload inconsistent — re-running cell",
			"source", hit.Source, "payload_target", row.Target.String())
		return Row{}, false
	}
	telemetry.ApplyCounters(ex.Metrics, row.Counters)
	if hit.Source == "cache" {
		journalFinished(ex, prog.Name, tgt.String(), hash, &row, true, clog)
	}
	if f := row.Failure; f != nil {
		ex.Status.Served(prog.Name, tgt.String(), hit.Source, true, f.Reason, 0)
		clog.Info("cell failure replayed", "source", hit.Source, "reason", f.Reason)
	} else {
		ex.Status.Served(prog.Name, tgt.String(), hit.Source, false, "", row.Core.Instructions)
		clog.Debug("cell served", "source", hit.Source, "retired", row.Core.Instructions)
	}
	return row, true
}
