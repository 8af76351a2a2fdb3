// Package report drives the paper's experiments end to end and
// renders their tables and figure series as text: Figure 1 (per-kernel
// path lengths), Table 1 (critical paths), Table 2 (scaled critical
// paths) and Figure 2 (mean ILP per window). RunSuite is the only way
// a (benchmark, target) cell runs: cmd/isacmp and the benchmark
// harness are thin wrappers around it, and the facade's
// Binary.Analyse builds its sinks from the same analysis table.
package report

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/durable"
	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/obs"
	"isacmp/internal/obs/slogx"
	"isacmp/internal/prof"
	"isacmp/internal/sched"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
)

// Row is one (target, analysis results) pair for a benchmark.
type Row struct {
	Target        cc.Target
	PathLen       uint64
	Regions       []core.RegionCount
	Other         uint64
	CP            uint64
	ILP           float64
	Runtime       float64 // seconds at 2 GHz
	ScaledCP      uint64
	ScaledILP     float64
	ScaledRuntime float64
	Windows       []core.WindowResult
	MixCounts     []core.GroupCount
	Branches      uint64
	BranchDensity float64
	BranchTaken   float64

	// Core is the uniform per-core stat block of the run.
	Core simeng.PipelineStats
	// WallSeconds is the wall time of this run. Sinks holds each
	// sink's events and its time inside every call, whether the tee or
	// a fan-out consumer delivered them.
	WallSeconds float64
	Sinks       []telemetry.SinkStats
	// Tracker reports the critical-path tracker's footprint when the
	// run carried one.
	Tracker *telemetry.TrackerStats
	// Fusion reports what the macro-op fusion pass did when one was
	// interposed (nil on fusion-off runs). EventsOut is the fused
	// machine's effective path length; PathLen stays architectural.
	Fusion *telemetry.FusionStats
	// Counters is the cell's transactional metrics delta (run.*,
	// predecode.*, fusion.* counters), accumulated locally during the
	// run and applied to the registry only when the cell retires.
	// Cached with the row, so a cache-served cell re-applies exactly
	// the delta the original computation produced — the property that
	// keeps canonical metrics byte-identical across a kill. Nil when
	// the experiment carries no registry.
	Counters map[string]uint64

	// Attempts is how many attempts this cell took (1 = first try).
	Attempts int
	// Failure is set when the cell produced no result: every attempt
	// failed (or the cell was reaped by its deadline). A failed row
	// carries no analysis data; the rest of the matrix is unaffected.
	Failure *telemetry.FailureRecord

	// Trace is the pipeline trace of the successful attempt, when the
	// experiment asked for one (Experiment.Trace).
	Trace *telemetry.PipelineTrace `json:"-"`
}

// Failed reports whether the row is a FAILED placeholder rather than
// a result.
func (r *Row) Failed() bool { return r.Failure != nil }

// Experiment selects which analyses Run attaches.
type Experiment struct {
	PathLength bool
	CritPath   bool
	Scaled     bool
	Windowed   bool
	Mix        bool
	// Columns, when non-nil, restricts the experiment to these target
	// columns, in this order (the GCC 12.2 pair for Figure 2, or the
	// run subcommand's -target); nil covers the paper's four.
	Columns []cc.Target
	// Core selects the timing model of every cell: "" or "emulation"
	// runs the functional core alone; "inorder" and "ooo" attach the
	// trace-driven model as a sink after the analyses, and the row's
	// Core block then carries the model's stats. Validate rejects any
	// other value.
	Core string
	// Cache attaches a default L1D model to the inorder and ooo cores.
	Cache bool
	// Trace, when non-nil, gives each cell attempt a pipeline tracer:
	// an observer of the emulation core's stream, or the timing
	// model's tracer. The successful attempt's tracer comes back in
	// Row.Trace. A traced cell is never served from or filed in
	// Durable, because a trace cannot be replayed.
	Trace func() *telemetry.PipelineTrace
	// WindowSizes overrides the paper's window sizes.
	WindowSizes []int
	// WindowStride overrides the paper's size/2 window stride (0
	// keeps it).
	WindowStride int
	// Latencies overrides the TX2 latency model.
	Latencies *simeng.LatencyModel
	// Metrics, when non-nil, receives the standard whole-run counters
	// (retired, branches, loads, stores) from every run. The registry
	// is safe for the concurrent per-target runs.
	Metrics *telemetry.Registry
	// Parallel is the worker count of the analysis engine: (workload,
	// target) cells are fanned out over this many pool workers, and a
	// cell with two or more consumers has its trace simulated once and
	// replayed into them concurrently. 1 runs everything strictly
	// sequentially; 0 selects GOMAXPROCS. Negative values are rejected
	// by Validate. Results are byte-identical for every value (see the
	// README's determinism contract).
	Parallel int
	// Fusion configures the macro-op fusion pass (internal/fusion):
	// a stream rewrite interposed between the core and the analyses
	// so path length, CP, windowed CP and ILP describe the fused
	// machine. The zero value is fusion off, in which case no adapter
	// is constructed at all and output is byte-identical to a build
	// without the feature.
	Fusion fusion.Config

	// Resilience knobs (see the README's failure-semantics section).
	// All default to off, which keeps fault-free runs byte-identical
	// to the pre-resilience engine.

	// CellTimeout is the per-cell wall-clock deadline: a cell still
	// running (or hung) after this long is reaped with an ErrDeadline
	// failure while the rest of the matrix keeps going. 0 disables
	// the watchdog.
	CellTimeout time.Duration
	// MaxInstructions is the per-cell retirement budget; a run that
	// exceeds it fails with ErrBudget. 0 disables the budget.
	MaxInstructions uint64
	// Retries is how many times a failed cell is re-attempted from
	// scratch (fresh machine and analyses) before its row is marked
	// FAILED. 0 means one attempt only.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling on
	// each further retry. 0 retries immediately.
	RetryBackoff time.Duration
	// FailFast selects first-error-cancel mode: the first failed cell
	// cancels the remaining matrix and RunSuite returns its error.
	// The default (continue-on-error) completes every other cell and
	// reports failures as FAILED rows instead.
	FailFast bool

	// Durability knobs (see internal/durable and DESIGN.md §6).

	// Ctx, when non-nil, is the matrix's root context: cancelling it
	// cancels the whole run hard — in-flight cells are reaped at their
	// next retirement poll, pending retry backoffs are interrupted —
	// exactly like a FailFast failure. Nil means context.Background().
	Ctx context.Context
	// Drain, when non-nil, is the graceful-shutdown signal: once
	// cancelled, no new cell or attempt starts, but in-flight attempts
	// run to completion and are cached, so a SIGINT'd run keeps
	// every result it paid for. Drained (never-started) cells come
	// back as FAILED(deadline) rows and are not cached — they run on
	// the next run over the directory — and the caller still gets a
	// valid partial manifest and the partial-failure exit code.
	Drain context.Context
	// Durable, when non-nil, is the crash-safety layer: every cell is
	// content-addressed and looked up in the result cache before
	// simulating, and a computed cell is filed there as it retires.
	// Failed, drained, cancelled and traced cells are never filed, so
	// a rerun recomputes them. See durable.Open.
	Durable *durable.Run

	// WrapMachine, when non-nil, wraps each cell's machine before the
	// run — the fault-injection hook. It must return m unchanged for
	// cells it does not target.
	WrapMachine func(workload, target string, attempt int, m simeng.Machine) simeng.Machine
	// WrapSink, when non-nil, wraps the event sink handed to the
	// core — the sink-fault injection hook.
	WrapSink func(workload, target string, attempt int, s isa.Sink) isa.Sink

	// Observability (see internal/obs). All default to off; none of
	// them can change a result byte — the flight recorder, the board's
	// meter and the emulation core's tracer are sinks beside the
	// consumers, outside the fusion pass, and everything they record is
	// stripped by manifest canonicalization.

	// Log, when non-nil, receives structured lifecycle lines for
	// every cell (start, attempt failures, retries, completion) with
	// workload/target/attempt attrs. The CLI attaches the run ID.
	Log *slog.Logger
	// RunID tags flight-recorder artifacts; usually obs.NewRunID().
	RunID string
	// Status, when non-nil, is driven through per-cell lifecycle
	// transitions and live retired counts — the /statusz, /events and
	// -progress source.
	Status *obs.Board
	// FlightDir, when non-empty, arms the flight recorder: every cell
	// attempt records its last FlightEvents retired events, and an
	// attempt that dies with a SimError dumps a post-mortem JSON
	// artifact into this directory (linked from the manifest failures
	// block). Cells reaped by the CellTimeout watchdog get no dump:
	// the recorder lives on the abandoned attempt goroutine, and
	// crossing goroutines for a dump would race the still-running
	// simulation.
	FlightDir string
	// FlightEvents is the recorder ring capacity (0 selects
	// obs.DefaultFlightEvents).
	FlightEvents int
	// Prof, when non-nil, records per-stage spans (setup, simulate,
	// deliver, per-sink, retry-backoff) for every cell on the worker
	// lane the cell ran on — the -profile span profiler. nil (the
	// default) costs one nil check per hook site. Like the other
	// observers it is a pure pass-through: it cannot change a result
	// byte.
	Prof *prof.Profiler
}

// Validate rejects experiment configurations that would otherwise
// panic or silently misbehave: negative worker counts, negative
// window strides (which previously wrapped around to huge unsigned
// strides), non-positive window sizes, negative resilience knobs, and
// an unknown core model.
func (ex Experiment) Validate() error {
	if ex.Parallel < 0 {
		return fmt.Errorf("report: -parallel %d is negative (0 selects all CPUs, 1 is sequential)", ex.Parallel)
	}
	if err := core.ValidateWindows(ex.WindowSizes, ex.WindowStride); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if ex.CellTimeout < 0 {
		return fmt.Errorf("report: -cell-timeout %v is negative (0 disables the watchdog)", ex.CellTimeout)
	}
	if ex.Retries < 0 {
		return fmt.Errorf("report: -retries %d is negative (0 means one attempt)", ex.Retries)
	}
	if ex.RetryBackoff < 0 {
		return fmt.Errorf("report: -retry-backoff %v is negative", ex.RetryBackoff)
	}
	if ex.FlightEvents < 0 {
		return fmt.Errorf("report: -flight-events %d is negative (0 selects the default ring of %d)",
			ex.FlightEvents, obs.DefaultFlightEvents)
	}
	switch ex.Core {
	case "", "emulation", "inorder", "ooo":
	default:
		return fmt.Errorf("report: -core %q is not a core model (want emulation, inorder or ooo)", ex.Core)
	}
	return nil
}

// Targets resolves the target columns an experiment covers.
func (ex Experiment) Targets() []cc.Target {
	if ex.Columns != nil {
		return ex.Columns
	}
	return cc.Targets()
}

// CountFailures reports how many rows across the suite are FAILED
// placeholders; CLIs use it to pick the partial-failure exit code.
func CountFailures(all [][]Row) int {
	n := 0
	for _, rows := range all {
		for i := range rows {
			if rows[i].Failed() {
				n++
			}
		}
	}
	return n
}

// CollectFailures flattens the suite's FAILED rows into manifest
// failure records, in deterministic workload/target order.
func CollectFailures(all [][]Row) []telemetry.FailureRecord {
	var out []telemetry.FailureRecord
	for _, rows := range all {
		for i := range rows {
			if rows[i].Failed() {
				out = append(out, *rows[i].Failure)
			}
		}
	}
	return out
}

// RunSuite fans the full analysis matrix — every (workload, target)
// cell of every selected analysis — out over a sched.Pool with
// ex.Parallel workers and returns the rows as rows[workload][target],
// in the deterministic input/Targets order regardless of completion
// order. The returned SchedStats describes the pool for the run
// manifest.
//
// Every cell runs under the resilience policy: panics are converted to
// typed errors, a cell is retried ex.Retries times with exponential
// backoff, and a cell still failing (or reaped by ex.CellTimeout) is
// returned as a FAILED placeholder row while the rest of the matrix
// completes. RunSuite itself returns a non-nil error only for invalid
// configuration, a panic that escaped every guard, or — in FailFast
// mode — the first cell failure, which also cancels the remaining
// cells.
func RunSuite(progs []*ir.Program, ex Experiment) ([][]Row, *telemetry.SchedStats, error) {
	if err := ex.Validate(); err != nil {
		return nil, nil, err
	}
	targets := ex.Targets()
	all := make([][]Row, len(progs))
	root := ex.Ctx
	if root == nil {
		root = context.Background()
	}
	ctx, cancel := context.WithCancel(root)
	defer cancel()
	// Seed the status board with the whole matrix up front, so
	// /statusz shows pending cells before any has started.
	ex.Status.SetWorkers(sched.DefaultWorkers(ex.Parallel))
	for _, prog := range progs {
		for _, tgt := range targets {
			ex.Status.Register(prog.Name, tgt.String())
		}
	}
	if ex.Log != nil {
		ex.Log.Info("matrix start",
			"workloads", len(progs), "targets", len(targets),
			"workers", sched.DefaultWorkers(ex.Parallel))
	}
	// firstFail records the temporally-first failure in FailFast mode —
	// the root cause — since cells cancelled after it also come back as
	// (deadline) failures.
	var firstFail atomic.Value
	pool := sched.NewPool(ex.Parallel, ex.Metrics)
	pool.Log = ex.Log
	for pi := range progs {
		all[pi] = make([]Row, len(targets))
		prog := progs[pi]
		for ti := range targets {
			pi, ti, tgt := pi, ti, targets[ti]
			pool.GoW(func(lane int) {
				row := runCell(ctx, prog, tgt, ex, lane)
				all[pi][ti] = row
				if row.Failed() && ex.FailFast {
					firstFail.CompareAndSwap(nil, row.Failure)
					cancel()
				}
			})
		}
	}
	pool.Close()
	st := pool.Stats()
	if n, first := pool.Panics(); n > 0 {
		return nil, &st, fmt.Errorf("report: %d matrix cell(s) panicked past every guard; first: %s", n, first)
	}
	if f, ok := firstFail.Load().(*telemetry.FailureRecord); ok {
		return nil, &st, fmt.Errorf("report: %s/%s failed (%s): %s",
			f.Workload, f.Target, f.Reason, f.Message)
	}
	return all, &st, nil
}

// drained reports whether the graceful-shutdown signal has fired.
func (ex *Experiment) drained() bool {
	return ex.Drain != nil && ex.Drain.Err() != nil
}

// runCell executes one (workload, target) cell under the full retry
// policy. It never returns an error: a cell whose every attempt failed
// comes back as a FAILED placeholder row carrying the typed failure
// record and attempt history.
func runCell(ctx context.Context, prog *ir.Program, tgt cc.Target, ex Experiment, lane int) Row {
	attempts := ex.Retries + 1
	cell := prog.Name + "/" + tgt.String()
	clog := slogx.OrNop(ex.Log).With(
		slogx.KeyWorkload, prog.Name, slogx.KeyTarget, tgt.String())
	// Durability: content-address the cell and serve it from the
	// content cache without simulating when an earlier run in the
	// directory finished it. A computed cell is filed as it retires.
	var dhash string
	if ex.Durable != nil && ex.Trace == nil && ctx.Err() == nil && !ex.drained() {
		if h, err := cellHash(prog, tgt, ex); err == nil {
			dhash = h
			if payload := ex.Durable.Lookup(prog.Name, tgt.String(), dhash); payload != nil {
				if row, ok := replayRow(payload, prog, tgt, ex, clog); ok {
					return row
				}
			}
		}
		// A cell whose compile fails gets no hash and no durability:
		// the attempt loop below reproduces the failure as ErrSetup.
	}
	var drainCh <-chan struct{}
	if ex.Drain != nil {
		drainCh = ex.Drain.Done()
	}
	var history []telemetry.AttemptRecord
	var last *simeng.SimError
	var postmortem string
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 && ex.RetryBackoff > 0 {
			backoff := ex.RetryBackoff << (attempt - 2)
			sp := ex.Prof.Start(lane, prof.StageRetryBackoff, "", cell)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
			case <-drainCh:
			}
			sp.End()
		}
		if ctx.Err() != nil || ex.drained() {
			// The matrix was cancelled (FailFast) or is draining
			// (SIGINT/SIGTERM) before this attempt started; record the
			// cancellation rather than running.
			cause := ctx.Err()
			if cause == nil {
				cause = ex.Drain.Err()
			}
			last = simeng.WithCell(&simeng.SimError{Kind: simeng.ErrDeadline, Err: cause},
				prog.Name, tgt.String())
			history = append(history, telemetry.AttemptRecord{
				Attempt: attempt, Reason: simeng.Reason(last), Message: last.Error(),
			})
			break
		}
		ex.Status.Running(prog.Name, tgt.String(), attempt)
		clog.Debug("cell attempt start", slogx.KeyAttempt, attempt)
		row, pm, err := runAttempt(ctx, prog, tgt, ex, attempt, lane)
		if err == nil {
			row.Attempts = attempt
			fileRow(ex, prog.Name, tgt.String(), dhash, &row, clog)
			ex.Status.Done(prog.Name, tgt.String(), row.WallSeconds, row.Core.Instructions)
			clog.Debug("cell done", slogx.KeyAttempt, attempt,
				"retired", row.Core.Instructions, "wall_seconds", row.WallSeconds)
			return row
		}
		last = simeng.WithCell(err, prog.Name, tgt.String())
		if pm != "" {
			postmortem = pm
		}
		history = append(history, telemetry.AttemptRecord{
			Attempt: attempt, Reason: simeng.Reason(last), Message: last.Error(),
		})
		clog.Warn("cell attempt failed", slogx.KeyAttempt, attempt,
			"reason", simeng.Reason(last), "pc", last.PC, "retired", last.Retired)
		if errors.Is(last, simeng.ErrDeadline) && ctx.Err() != nil {
			// Cancelled from above, not a per-cell timeout: retrying
			// would only re-observe the dead context.
			break
		}
		if attempt < attempts {
			ex.Status.Retrying(prog.Name, tgt.String(), attempt, simeng.Reason(last))
		}
	}
	ex.Status.Failed(prog.Name, tgt.String(), len(history), simeng.Reason(last))
	clog.Error("cell failed", "reason", simeng.Reason(last),
		"attempts", len(history), "postmortem", postmortem)
	return Row{
		Target:   tgt,
		Attempts: len(history),
		Failure: &telemetry.FailureRecord{
			Workload:   prog.Name,
			Target:     tgt.String(),
			Reason:     simeng.Reason(last),
			Message:    last.Error(),
			PC:         last.PC,
			Retired:    last.Retired,
			Attempts:   len(history),
			History:    history,
			Postmortem: postmortem,
		},
	}
}

// runAttempt executes one attempt of a cell under the panic guard and,
// when CellTimeout is set, a watchdog: the attempt runs on its own
// goroutine and a select on the deadline reaps a cell whose Step has
// genuinely hung (the in-core context poll only catches slow-but-
// retiring cells). The reaped goroutine is abandoned with a buffered
// result channel; cancelling its context makes it exit at the next
// retirement poll if it is still making progress.
//
// When the flight recorder is armed (ex.FlightDir), a failing attempt
// dumps its post-mortem and the path comes back as the middle return.
// The dump happens inside run(), on the same goroutine that fed the
// recorder, after simulation has stopped — the only point where the
// ring is safe to read. A watchdog-reaped attempt is abandoned before
// that point, so reaped cells report no post-mortem.
func runAttempt(ctx context.Context, prog *ir.Program, tgt cc.Target, ex Experiment, attempt, lane int) (Row, string, error) {
	cellCtx := ctx
	if ex.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, ex.CellTimeout)
		defer cancel()
	}
	run := func() (Row, string, error) {
		var rec *obs.Recorder
		if ex.FlightDir != "" {
			rec = obs.NewRecorder(ex.FlightEvents, ex.RunID, prog.Name, tgt.String(), attempt, ex.Metrics)
		}
		var row Row
		err := simeng.Guard(func() error {
			var runErr error
			row, runErr = runOne(cellCtx, prog, tgt, ex, attempt, lane, rec)
			return runErr
		})
		if err == nil || rec == nil {
			return row, "", err
		}
		se := simeng.WithCell(err, prog.Name, tgt.String())
		pm := rec.Dump(ex.FlightDir, se,
			slogx.WithCell(ex.Log, prog.Name, tgt.String(), attempt))
		return row, pm, err
	}
	if ex.CellTimeout <= 0 {
		return run()
	}
	type result struct {
		row Row
		pm  string
		err error
	}
	ch := make(chan result, 1)
	go func() {
		row, pm, err := run()
		ch <- result{row, pm, err}
	}()
	select {
	case res := <-ch:
		return res.row, res.pm, res.err
	case <-cellCtx.Done():
		return Row{Target: tgt}, "", &simeng.SimError{Kind: simeng.ErrDeadline, Err: cellCtx.Err()}
	}
}

func runOne(ctx context.Context, prog *ir.Program, tgt cc.Target, ex Experiment, attempt, lane int, rec *obs.Recorder) (Row, error) {
	row := Row{Target: tgt}
	cell := prog.Name + "/" + tgt.String()
	setup := ex.Prof.Start(lane, prof.StageSetup, "", cell)
	compiled, err := cc.Compile(prog, tgt)
	if err != nil {
		return row, err
	}
	mach, _, err := compiled.NewMachine()
	if err != nil {
		return row, err
	}
	if ex.WrapMachine != nil {
		mach = ex.WrapMachine(prog.Name, tgt.String(), attempt, mach)
	}

	set := NewAnalysisSet(ex, compiled)

	emu := &simeng.EmulationCore{
		MaxInstructions: ex.MaxInstructions, Ctx: ctx,
		ProfileStages: ex.Prof.Enabled(),
	}
	if ex.Log != nil {
		emu.Log = slogx.WithCell(ex.Log, prog.Name, tgt.String(), attempt)
	}
	// The timing model is one more sink after the analyses, and the
	// source of the row's core stats. The tracer is the model's, or on
	// the emulation core an observer after the consumers.
	var trace *telemetry.PipelineTrace
	var tracer simeng.PipelineObserver
	if ex.Trace != nil {
		trace = ex.Trace()
		tracer = trace
	}
	var after []isa.Sink // the observers that follow the consumers
	var source simeng.StatsSource = emu
	switch ex.Core {
	case "inorder":
		model := simeng.NewInOrderModel()
		model.DCache, model.Tracer = l1d(ex.Cache), tracer
		set.add("inorder-model", model)
		source = model
	case "ooo":
		model := simeng.NewOoOModel()
		model.DCache, model.Tracer = l1d(ex.Cache), tracer
		set.add("ooo-model", model)
		source = model
	default:
		if trace != nil {
			after = append(after, trace)
		}
	}
	if meter := obs.NewMeter(ex.Status, prog.Name, tgt.String()); meter != nil {
		after = append(after, meter)
		defer meter.Flush()
	}

	var rm *telemetry.RunMetrics
	if ex.Metrics != nil {
		// Transactional cell mode: counts accumulate locally and reach
		// the registry only in the applyCounters call below, once the
		// attempt has succeeded — so a failed or abandoned attempt
		// contributes exactly zero and a cache hit re-applies the same
		// delta the original computation did.
		rm = telemetry.NewCellMetrics()
	}

	// The cell's consumers run behind the tee on this goroutine at
	// -parallel 1 or when there is at most one of them, the strictly
	// sequential path; otherwise each runs on its own fan-out consumer
	// while the trace is simulated once. Both time every call into a
	// consumer and produce identical analysis results. The run-metrics
	// consumer, last, has no sink row.
	consumers := append([]isa.Sink(nil), set.sinks...)
	if rm != nil {
		consumers = append(consumers, rm)
	}
	var stats simeng.Stats
	var fus *fusion.Pass
	setup.End()
	runStart := ex.Prof.Now()
	start := time.Now()
	run := func(s isa.Sink) error {
		// The fusion pass wraps the consumers' sink, so every consumer
		// sees the same rewritten stream and n counts fused events, the
		// effective path length. Outside it comes the sink-fault hook.
		// The observers sit outside both, on one list with the
		// consumers, so they see the stream the core retired: the
		// flight recorder first, so its ring holds the event a faulty
		// sink died on, then the tracer and the meter, which count only
		// delivered events.
		if ex.Fusion.Active(tgt.Arch) {
			fus = fusion.NewPass(ex.Fusion, tgt.Arch, s)
			s = fus
		}
		if ex.WrapSink != nil {
			s = ex.WrapSink(prog.Name, tgt.String(), attempt, s)
		}
		list := isa.MultiSink{s}
		if rec != nil {
			list = isa.MultiSink{rec, s}
		}
		if list = append(list, after...); len(list) > 1 {
			s = list
		}
		var runErr error
		stats, runErr = emu.Run(mach, s)
		if runErr == nil && fus != nil {
			// Deliver the carried trailing event while the consumers
			// still listen.
			fus.Flush()
		}
		return runErr
	}
	var n uint64
	var busyNs []int64
	// inlineNs is the consumers' time inside the run loop's deliver
	// stage: all of it on the tee, none on the fan-out.
	var inlineNs int64
	if sched.DefaultWorkers(ex.Parallel) == 1 || len(consumers) <= 1 {
		tee := telemetry.NewTee()
		for _, c := range consumers {
			tee.Add("", c)
		}
		err = run(tee)
		n, busyNs = tee.EventCount(), tee.BusyNs()
		for _, ns := range busyNs {
			inlineNs += ns
		}
	} else {
		var fs sched.FanoutStats
		n, err = sched.FanoutTimed(run, &fs, consumers...)
		busyNs = fs.SinkBusyNs
	}
	if err != nil {
		return row, err
	}
	row.Sinks = set.rows(n, busyNs)
	if ex.Prof.Enabled() {
		// Each sink's time is laid out after simulate/deliver on the
		// cell's lane, so the timeline renders without overlap even
		// where sinks ran concurrently, and deliver is the hand-off
		// alone on both paths. The durations, which is what
		// attribution sums, stay exact.
		stages := emu.Stages
		stages.DeliverNs -= inlineNs
		cursor := recordStageSpans(ex.Prof, lane, cell, runStart, stages)
		for i, ss := range row.Sinks {
			if set.carried[i] {
				continue // no time of its own
			}
			est := int64(ss.EstOverheadNs)
			ex.Prof.Record(lane, prof.StageSink, ss.Name, cell, cursor, cursor+est)
			cursor += est
		}
	}
	row.WallSeconds = time.Since(start).Seconds()
	row.Core = source.PipelineStats()
	if rm != nil {
		row.Counters = rm.Counters()
		if src, ok := mach.(isa.PredecodeStatsSource); ok {
			telemetry.AddPredecodeCounters(row.Counters, src.PredecodeStats())
		}
	}
	if fus != nil {
		row.Fusion = fusionRecord(ex.Fusion, tgt.Arch, fus.Stats())
		if rm != nil {
			telemetry.AddFusionCounters(row.Counters, row.Fusion)
		}
	}
	telemetry.ApplyCounters(ex.Metrics, row.Counters)
	row.PathLen = stats.Instructions
	set.Fill(&row)
	row.Trace = trace
	return row, nil
}

// l1d returns the default L1D model when a cache is asked for.
func l1d(on bool) *simeng.Cache {
	if on {
		return simeng.NewL1D()
	}
	return nil
}

// rows builds the set's sink rows over events events, given each
// attached sink's busy time in attachment order. A carried row counts
// the events and no time.
func (a *AnalysisSet) rows(events uint64, busyNs []int64) []telemetry.SinkStats {
	out := make([]telemetry.SinkStats, 0, len(a.names))
	for i, name := range a.names {
		if a.carried[i] {
			out = append(out, telemetry.SinkStats{Name: name, Events: events})
			continue
		}
		out = append(out, busyStats(name, events, busyNs[0]))
		busyNs = busyNs[1:]
	}
	return out
}

// busyStats builds a consumer's sink row. The tee and the fan-out
// time every call into a consumer, so every event is timed and the
// busy time is the sink's whole cost.
func busyStats(name string, events uint64, busyNs int64) telemetry.SinkStats {
	s := telemetry.SinkStats{Name: name, Events: events}
	if events > 0 {
		s.SampledEvents, s.SampledNs, s.EstOverheadNs = events, uint64(busyNs), uint64(busyNs)
		s.MeanNsPerEvent = float64(busyNs) / float64(events)
	}
	return s
}

// recordStageSpans lays the core's simulate/deliver split onto the
// cell's lane starting at runStart and returns the cursor after the
// last span — the anchor for the per-sink spans that follow.
func recordStageSpans(p *prof.Profiler, lane int, cell string, runStart int64, st simeng.StageNs) int64 {
	cursor := runStart
	p.Record(lane, prof.StageSimulate, "", cell, cursor, cursor+st.SimulateNs)
	cursor += st.SimulateNs
	p.Record(lane, prof.StageDeliver, "", cell, cursor, cursor+st.DeliverNs)
	cursor += st.DeliverNs
	return cursor
}

// fusionRecord converts the pass counters into the manifest fusion
// block. Every rule enabled for the run's architecture is listed, hit
// or not, so a rule that silently stopped firing shows up in a diff.
func fusionRecord(cfg fusion.Config, arch isa.Arch, st fusion.Stats) *telemetry.FusionStats {
	fs := &telemetry.FusionStats{Spec: cfg.Spec(), EventsIn: st.EventsIn, EventsOut: st.EventsOut}
	rules := cfg.RulesFor(arch)
	for r := fusion.Rule(0); r < fusion.NumRules; r++ {
		if rules.Has(r) {
			fs.Rules = append(fs.Rules, telemetry.FusionRuleJSON{Rule: r.String(), Hits: st.Hits[r]})
		}
	}
	return fs
}

// healthy filters FAILED placeholder rows out of a column-major
// table's rows. With no failures it returns rows unchanged, so
// fault-free output stays byte-identical.
func healthy(rows []Row) []Row {
	ok := true
	for i := range rows {
		if rows[i].Failed() {
			ok = false
			break
		}
	}
	if ok {
		return rows
	}
	out := make([]Row, 0, len(rows))
	for i := range rows {
		if !rows[i].Failed() {
			out = append(out, rows[i])
		}
	}
	return out
}

// writeFailedNotes appends one line per FAILED row of a column-major
// table, since failed cells cannot appear as columns. No-op (zero
// bytes) when every row is healthy.
func writeFailedNotes(w io.Writer, rows []Row) {
	for i := range rows {
		if f := rows[i].Failure; f != nil {
			fmt.Fprintf(w, "%s: FAILED(%s) after %d attempt(s)\n",
				rows[i].Target.String(), f.Reason, f.Attempts)
		}
	}
}

// WriteMix renders the per-group instruction histogram for every
// target side by side, plus the branch summary. FAILED cells are
// dropped from the columns and noted below the table.
func WriteMix(w io.Writer, name string, rows []Row) {
	fmt.Fprintf(w, "== %s: instruction mix ==\n", name)
	all := rows
	rows = healthy(rows)
	if len(rows) == 0 || len(rows[0].MixCounts) == 0 {
		writeFailedNotes(w, all)
		return
	}
	fmt.Fprintf(w, "%-14s", "group")
	for _, r := range rows {
		fmt.Fprintf(w, "%24s", r.Target.String())
	}
	fmt.Fprintln(w)
	for gi := range rows[0].MixCounts {
		nonzero := false
		for _, r := range rows {
			if r.MixCounts[gi].Count > 0 {
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		fmt.Fprintf(w, "%-14s", rows[0].MixCounts[gi].Group.String())
		for _, r := range rows {
			gc := r.MixCounts[gi]
			fmt.Fprintf(w, "%16d (%4.1f%%)", gc.Count, gc.Fraction*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "branch dens.")
	for _, r := range rows {
		fmt.Fprintf(w, "%23.1f%%", r.BranchDensity*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s", "taken rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%23.1f%%", r.BranchTaken*100)
	}
	fmt.Fprintln(w)
	writeFailedNotes(w, all)
	fmt.Fprintln(w)
}

// WritePathLengths renders the Figure 1 data: per-kernel dynamic
// counts for each target, normalised to the GCC 9.2 / AArch64 total.
// FAILED cells are dropped from the columns and noted below the table.
func WritePathLengths(w io.Writer, name string, rows []Row) {
	fmt.Fprintf(w, "== %s: path length per kernel (Figure 1) ==\n", name)
	all := rows
	rows = healthy(rows)
	var baseline float64
	for _, r := range rows {
		if r.Target.Flavor == cc.GCC9 && r.Target.Arch == isa.AArch64 {
			baseline = float64(r.PathLen)
		}
	}
	// Collect kernel names in region order from the first row.
	if len(rows) == 0 {
		writeFailedNotes(w, all)
		return
	}
	var kernels []string
	for _, rc := range rows[0].Regions {
		kernels = append(kernels, rc.Name)
	}
	fmt.Fprintf(w, "%-22s", "kernel")
	for _, r := range rows {
		fmt.Fprintf(w, "%24s", r.Target.String())
	}
	fmt.Fprintln(w)
	for _, k := range kernels {
		fmt.Fprintf(w, "%-22s", k)
		for _, r := range rows {
			var c uint64
			for _, rc := range r.Regions {
				if rc.Name == k {
					c = rc.Count
				}
			}
			fmt.Fprintf(w, "%24d", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-22s", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%24d", r.PathLen)
	}
	fmt.Fprintln(w)
	if baseline > 0 {
		fmt.Fprintf(w, "%-22s", "normalised")
		for _, r := range rows {
			fmt.Fprintf(w, "%24.4f", float64(r.PathLen)/baseline)
		}
		fmt.Fprintln(w)
	}
	writeFailedNotes(w, all)
	fmt.Fprintln(w)
}

// WriteCritPaths renders the Table 1 (and, when scaled data is
// present, Table 2) rows for one benchmark.
func WriteCritPaths(w io.Writer, name string, rows []Row, scaled bool) {
	label := "critical path (Table 1)"
	if scaled {
		label = "scaled critical path (Table 2)"
	}
	fmt.Fprintf(w, "== %s: %s ==\n", name, label)
	fmt.Fprintf(w, "%-18s%18s%14s%10s%16s\n", "target", "path length", "CP", "ILP", "2GHz time (ms)")
	for _, r := range rows {
		if f := r.Failure; f != nil {
			fmt.Fprintf(w, "%-18sFAILED(%s) after %d attempt(s)\n",
				r.Target.String(), f.Reason, f.Attempts)
			continue
		}
		cp, ilp, rt := r.CP, r.ILP, r.Runtime
		if scaled {
			cp, ilp, rt = r.ScaledCP, r.ScaledILP, r.ScaledRuntime
		}
		fmt.Fprintf(w, "%-18s%18d%14d%10.1f%16.4f\n",
			r.Target.String(), r.PathLen, cp, ilp, rt*1e3)
	}
	fmt.Fprintln(w)
}

// WriteWindowed renders the Figure 2 series: mean ILP per window size
// for the GCC 12.2 binaries. FAILED cells are dropped from the columns
// and noted below the table.
func WriteWindowed(w io.Writer, name string, rows []Row) {
	fmt.Fprintf(w, "== %s: mean ILP per window (Figure 2) ==\n", name)
	all := rows
	rows = healthy(rows)
	if len(rows) == 0 {
		writeFailedNotes(w, all)
		return
	}
	fmt.Fprintf(w, "%-14s", "window")
	for _, r := range rows {
		fmt.Fprintf(w, "%20s", r.Target.String())
	}
	fmt.Fprintln(w)
	for i := range rows[0].Windows {
		fmt.Fprintf(w, "%-14d", rows[0].Windows[i].Size)
		for _, r := range rows {
			fmt.Fprintf(w, "%20.3f", r.Windows[i].MeanILP)
		}
		fmt.Fprintln(w)
	}
	writeFailedNotes(w, all)
	fmt.Fprintln(w)
}

// Summary compares the two ISAs at one compiler version, mirroring the
// sentences of the paper's section 3.2 ("for 6 out of 10
// mini-app+compiler pairs, Arm has a shorter path length...").
type Summary struct {
	Benchmark string
	Flavor    cc.Flavor
	// RVOverArm is RISC-V path length / AArch64 path length.
	RVOverArm float64
}

// Summarise derives the per-pair path-length ratios from rows. FAILED
// cells contribute nothing, so a pair with a failed side is skipped.
func Summarise(name string, rows []Row) []Summary {
	byKey := map[cc.Target]uint64{}
	for _, r := range rows {
		if r.Failed() {
			continue
		}
		byKey[r.Target] = r.PathLen
	}
	var out []Summary
	for _, fl := range []cc.Flavor{cc.GCC9, cc.GCC12} {
		arm := byKey[cc.Target{Arch: isa.AArch64, Flavor: fl}]
		rv := byKey[cc.Target{Arch: isa.RV64, Flavor: fl}]
		if arm == 0 || rv == 0 {
			continue
		}
		out = append(out, Summary{
			Benchmark: name,
			Flavor:    fl,
			RVOverArm: float64(rv) / float64(arm),
		})
	}
	return out
}

// WriteSummaries prints the cross-benchmark ratio table and the
// overall mean, the paper's headline "2.3% longer for RISC-V" metric.
func WriteSummaries(w io.Writer, all []Summary) {
	fmt.Fprintln(w, "== path-length ratios (RISC-V / AArch64) ==")
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Benchmark != all[j].Benchmark {
			return all[i].Benchmark < all[j].Benchmark
		}
		return all[i].Flavor < all[j].Flavor
	})
	var sum float64
	armShorter := 0
	for _, s := range all {
		fmt.Fprintf(w, "%-14s %-9s %8.4f (%+.1f%%)\n",
			s.Benchmark, s.Flavor.String(), s.RVOverArm, (s.RVOverArm-1)*100)
		sum += s.RVOverArm
		if s.RVOverArm > 1 {
			armShorter++
		}
	}
	if len(all) > 0 {
		mean := sum / float64(len(all))
		fmt.Fprintf(w, "%-14s %-9s %8.4f (%+.1f%%)\n", "mean", "", mean, (mean-1)*100)
		fmt.Fprintf(w, "AArch64 shorter for %d of %d benchmark+compiler pairs\n",
			armShorter, len(all))
	}
	fmt.Fprintln(w)
}

// WriteFusion renders the Celio-style effective-path-length table for
// one benchmark: architectural path length vs fused event count per
// target, with the per-rule hit counters. It writes nothing when no
// row carried a fusion pass, so fusion-off output stays byte-identical.
func WriteFusion(w io.Writer, name string, rows []Row) {
	rows = healthy(rows)
	any := false
	for i := range rows {
		if rows[i].Fusion != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "== %s: effective path length with macro-op fusion ==\n", name)
	fmt.Fprintf(w, "%-22s %14s %14s %8s  %s\n",
		"target", "path len", "fused len", "ratio", "rule hits")
	for i := range rows {
		r := &rows[i]
		if r.Fusion == nil {
			fmt.Fprintf(w, "%-22s %14d %14s %8s  %s\n",
				r.Target.String(), r.PathLen, "-", "-", "(fusion off)")
			continue
		}
		ratio := 0.0
		if r.Fusion.EventsIn > 0 {
			ratio = float64(r.Fusion.EventsOut) / float64(r.Fusion.EventsIn)
		}
		var hits []string
		for _, rl := range r.Fusion.Rules {
			if rl.Hits > 0 {
				hits = append(hits, fmt.Sprintf("%s=%d", rl.Rule, rl.Hits))
			}
		}
		desc := strings.Join(hits, " ")
		if desc == "" {
			desc = "(none fired)"
		}
		fmt.Fprintf(w, "%-22s %14d %14d %8.4f  %s\n",
			r.Target.String(), r.Fusion.EventsIn, r.Fusion.EventsOut, ratio, desc)
	}
	fmt.Fprintln(w)
}

// Banner writes a run header.
func Banner(w io.Writer, what, scale string) {
	line := strings.Repeat("-", 72)
	fmt.Fprintf(w, "%s\n%s (scale: %s)\n%s\n", line, what, scale, line)
}
