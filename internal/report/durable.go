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
// (the Row, counters included) is filed in the content cache, and how
// a cache hit is served back into a live matrix byte-identically.

// analysisSpec canonically serializes every experiment knob that can
// change a cell's result: the analysis selection, the core and cache
// models, window geometry, latency model, retirement budget, and
// whether metrics counters are collected. The execution-strategy knob
// Parallel is deliberately excluded — the byte-identity contract
// (TestParallelByteIdentical) guarantees it cannot change a result — as
// are the observers (status board, profiler, flight recorder) and the
// target columns, which the key already names. Fault-injection
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

// fileRow files a computed cell's canonical Row in the content cache.
// A failed cache write is survived inside durable; an unmarshalable
// row is a programming error surfaced in the log.
func fileRow(ex Experiment, workload, target, hash string, row *Row, clog *slog.Logger) {
	if ex.Durable == nil || hash == "" {
		return
	}
	data, err := json.Marshal(row)
	if err != nil {
		clog.Warn("durable: row encode failed — cell not cached", "err", err)
		return
	}
	ex.Durable.CellFinished(workload, target, hash, data, false)
}

// replayRow reconstructs a cell's Row from its cache payload: the
// payload unmarshals back into the exact Row the original run
// computed, its counter delta is re-applied to the registry, and the
// durable run and the status board count the cell served. Returns
// ok=false when the payload is unusable (it does not parse, names
// another target, or holds a failure); the cell then recomputes, and
// counts as computed alone.
func replayRow(payload []byte, prog *ir.Program, tgt cc.Target, ex Experiment, clog *slog.Logger) (Row, bool) {
	var row Row
	if err := json.Unmarshal(payload, &row); err != nil {
		clog.Warn("durable: cache payload rejected — re-running cell", "err", err)
		return Row{}, false
	}
	if row.Target != tgt || row.Failed() {
		clog.Warn("durable: cache payload inconsistent — re-running cell",
			"payload_target", row.Target.String(), "failed", row.Failed())
		return Row{}, false
	}
	telemetry.ApplyCounters(ex.Metrics, row.Counters)
	ex.Durable.Served()
	ex.Status.Served(prog.Name, tgt.String(), row.Core.Instructions)
	clog.Debug("cell served from cache", "retired", row.Core.Instructions)
	return row, true
}
