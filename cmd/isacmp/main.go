// Command isacmp regenerates every table and figure of the paper from
// one binary:
//
//	isacmp pathlen  [-scale small] [-bench stream]   Figure 1
//	isacmp critpath [-scale small] [-bench stream]   Table 1
//	isacmp scaledcp [-scale small] [-bench stream]   Table 2
//	isacmp windowcp [-scale small] [-bench stream]   Figure 2
//	isacmp all      [-scale small]                   everything
//	isacmp run      [-workload stream] [-core ooo] [-metrics-json out.json]
//	isacmp disasm   [-bench stream] [-kernel copy] [-target aarch64-gcc12]
//	isacmp verify   [-scale tiny]                    simulated vs host reference
//
// -scale is tiny, small or paper. With no -bench, every benchmark
// runs.
//
// Observability flags (every subcommand): -json writes a run manifest
// (schema isacmp/run-manifest/v2); -progress prints a retire-rate
// heartbeat to stderr; -cpuprofile/-memprofile write pprof profiles;
// -serve ADDR exposes /metrics (Prometheus text), /statusz (live
// matrix state), /events (SSE lifecycle stream), /healthz, /readyz
// and /debug/pprof for the duration of the command; -log-level and
// -log-format control the structured stderr log; -flight-dir arms the
// per-cell flight recorder (post-mortem JSON on cell death, ring size
// -flight-events); -profile records per-stage span timelines on
// per-worker lanes (served on /profilez, summarized on /statusz,
// exported as Chrome-trace JSON via -profile-trace or
// /profilez?format=chrome). The run subcommand adds -core
// emulation|inorder|ooo, -cache, -metrics-json (alias of -json),
// -trace (Chrome-trace JSON of pipeline timing, loadable in
// chrome://tracing), -trace-format chrome|jsonl, -trace-cap and
// -trace-sample.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"isacmp"

	"isacmp/internal/a64"
	"isacmp/internal/core"
	"isacmp/internal/elfio"
	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/obs"
	"isacmp/internal/obs/slogx"
	"isacmp/internal/prof"
	"isacmp/internal/report"
	"isacmp/internal/rv64"
	"isacmp/internal/sched"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scaleFlag := fs.String("scale", "small", "problem size: tiny, small or paper")
	benchFlag := fs.String("bench", "", "run a single benchmark (stream, cloverleaf, minibude, lbm, minisweep)")
	workloadFlag := fs.String("workload", "", "alias of -bench")
	kernelFlag := fs.String("kernel", "", "kernel to disassemble (disasm)")
	targetFlag := fs.String("target", "aarch64-gcc12", "target: {aarch64,rv64}-{gcc9,gcc12}, or \"all\" (run)")
	dirFlag := fs.String("dir", "results", "output directory (artifacts)")
	latencyFlag := fs.String("latency-file", "", "latency config file overriding the TX2 model (scaledcp)")
	countFlag := fs.Int("n", 32, "instructions to print (trace)")
	strideFlag := fs.Int("stride", 0, "window stride in instructions (windowcp; 0 = size/2)")
	fusionFlag := fs.String("fusion", "off", "macro-op fusion: off, rv64, a64 or both, optionally :rule,rule,... (rules: loadpair, storepair, addld, addst, slliadd, luiaddi, cmpbranch)")
	jsonFlag := fs.String("json", "", "write a run manifest to this file (\"-\" for stdout)")
	metricsJSONFlag := fs.String("metrics-json", "", "alias of -json")
	coreFlag := fs.String("core", "emulation", "core model for run: emulation, inorder or ooo")
	cacheFlag := fs.Bool("cache", false, "attach an L1D cache model to the inorder/ooo core (run)")
	traceFlag := fs.String("trace", "", "write a pipeline trace to this file (run)")
	traceFormatFlag := fs.String("trace-format", "chrome", "pipeline trace format: chrome or jsonl")
	traceCapFlag := fs.Int("trace-cap", 4096, "pipeline trace ring-buffer capacity in spans")
	traceSampleFlag := fs.Uint64("trace-sample", 1, "record every Nth instruction in the pipeline trace")
	parallelFlag := fs.Int("parallel", 0, "analysis workers (0 = all CPUs, 1 = sequential); results are identical for every value")
	progressFlag := fs.Bool("progress", false, "print a retire-rate heartbeat to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile to this file")
	cellTimeoutFlag := fs.Duration("cell-timeout", 0, "per-cell wall-clock deadline; an overrunning or hung cell becomes a FAILED row (0 disables)")
	retriesFlag := fs.Int("retries", 0, "re-attempts per failed cell before marking it FAILED")
	retryBackoffFlag := fs.Duration("retry-backoff", 100*time.Millisecond, "sleep before the first retry, doubling each further retry")
	failFastFlag := fs.Bool("fail-fast", false, "cancel the whole matrix on the first cell failure instead of continuing")
	maxInstFlag := fs.Uint64("max-instructions", 0, "per-cell instruction budget; exceeding it is a FAILED(budget) row (0 disables)")
	serveFlag := fs.String("serve", "", "serve the observability endpoints (/metrics, /statusz, /events, /healthz, /debug/pprof) on this address for the duration of the command (e.g. :8080, or :0 for an ephemeral port)")
	logLevelFlag := fs.String("log-level", "info", "structured log threshold: debug, info, warn or error")
	logFormatFlag := fs.String("log-format", "text", "structured log encoding on stderr: text or json (JSONL)")
	flightDirFlag := fs.String("flight-dir", "", "dump a flight-recorder post-mortem JSON into this directory when a cell fails")
	flightEventsFlag := fs.Int("flight-events", 0, "flight-recorder ring capacity in retired events (0 = default)")
	profileFlag := fs.Bool("profile", false, "record per-stage spans (setup/simulate/deliver/sink/retry-backoff/manifest-write) on per-worker timelines; served on /profilez and summarized on /statusz")
	profileTraceFlag := fs.String("profile-trace", "", "write the -profile span timelines as Chrome-trace JSON to this file at exit (implies -profile)")
	durableDirFlag := fs.String("durable-dir", "", "arm crash-safe running: a write-ahead cell journal plus content-addressed result cache in this directory")
	resumeFlag := fs.String("resume", "", "resume an interrupted run from this durability directory: replay the journal, verify hashes, recompute only unfinished cells")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(report.ExitUsage)
	}
	if *workloadFlag != "" {
		*benchFlag = *workloadFlag
	}
	if *metricsJSONFlag != "" {
		*jsonFlag = *metricsJSONFlag
	}

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		usageFatal(err)
	}
	fusionCfg, err := fusion.ParseSpec(*fusionFlag)
	if err != nil {
		usageFatal(err)
	}
	progs, err := selectBenchmarks(*benchFlag, scale)
	if err != nil {
		usageFatal(err)
	}

	stopCPU, err := telemetry.StartCPUProfile(*cpuProfile)
	if err != nil {
		fatal(err)
	}
	defer stopCPU()
	reg := telemetry.NewRegistry()
	manifest := telemetry.NewManifest(cmd, scale.String())
	startTime := time.Now()

	// Control plane: structured logger, run identity, live status
	// board, and (on -serve) the embedded HTTP server — all following
	// one context so -fail-fast/interrupt tears the server down too.
	runID := obs.NewRunID()
	log, err := slogx.New(os.Stderr, *logLevelFlag, *logFormatFlag)
	if err != nil {
		usageFatal(err)
	}
	log = log.With(slogx.KeyRunID, runID)
	board := obs.NewBoard(runID, reg)
	manifest.Obs = &telemetry.ObsConfig{
		RunID:     runID,
		LogLevel:  *logLevelFlag,
		LogFormat: *logFormatFlag,
	}
	if *flightDirFlag != "" {
		events := *flightEventsFlag
		if events <= 0 {
			events = obs.DefaultFlightEvents
		}
		manifest.Obs.FlightRecorder = &telemetry.FlightRecorderConfig{
			Dir:    *flightDirFlag,
			Events: events,
		}
	}
	// The span profiler gets one lane per analysis worker plus a
	// coordinator lane for out-of-pool work (manifest writes). nil
	// when -profile is off: every hook site then costs one nil check.
	var profiler *prof.Profiler
	if *profileFlag || *profileTraceFlag != "" {
		profiler = prof.New(sched.DefaultWorkers(*parallelFlag), 0)
	}
	obsCtx, obsCancel := context.WithCancel(context.Background())
	defer obsCancel()
	if *serveFlag != "" {
		srv, err := obs.StartServer(obsCtx, obs.ServerConfig{
			Addr: *serveFlag, Registry: reg, Board: board, Profiler: profiler, Log: log,
		})
		if err != nil {
			fatal(err)
		}
		srv.SetReady(true)
		defer srv.Close()
		manifest.Obs.ServeAddr = srv.Addr()
		log.Info("observability server listening", "addr", srv.Addr())
	}

	// Crash-safety layer: -durable-dir arms a fresh journal (the
	// content cache persists across runs), -resume replays an existing
	// one so already-retired cells are served instead of recomputed.
	drun, err := report.ArmDurability(*durableDirFlag, *resumeFlag, log)
	if err != nil {
		fatal(err)
	}
	if drun != nil {
		defer drun.Close()
	}

	// Two-stage interrupt contract for long matrix runs: the first
	// SIGINT/SIGTERM drains (no new cells start; in-flight cells
	// finish and journal; a valid partial manifest is written; exit
	// 3), the second hard-cancels in-flight cells, a third falls back
	// to the default signal disposition. Non-matrix subcommands keep
	// the default disposition throughout.
	var hardCtx, drainCtx context.Context
	switch cmd {
	case "pathlen", "critpath", "scaledcp", "windowcp", "mix", "all", "run":
		hardCtx, drainCtx = report.InstallDrainHandler(log)
	}

	baseEx := report.Experiment{
		Metrics:         reg,
		Fusion:          fusionCfg,
		Parallel:        *parallelFlag,
		CellTimeout:     *cellTimeoutFlag,
		MaxInstructions: *maxInstFlag,
		Retries:         *retriesFlag,
		RetryBackoff:    *retryBackoffFlag,
		FailFast:        *failFastFlag,
		Log:             log,
		RunID:           runID,
		Status:          board,
		FlightDir:       *flightDirFlag,
		FlightEvents:    *flightEventsFlag,
		Prof:            profiler,
		Ctx:             hardCtx,
		Drain:           drainCtx,
		Durable:         drun,
	}
	if *progressFlag {
		baseEx.Progress = os.Stderr
		baseEx.ProgressFinalOnly = !slogx.IsTerminal(os.Stderr)
	}
	if *strideFlag != 0 {
		baseEx.WindowStride = *strideFlag
	}
	if err := baseEx.Validate(); err != nil {
		usageFatal(err)
	}
	// failedCells accumulates FAILED rows across the subcommand; a
	// partial matrix exits with report.ExitPartial after the manifest
	// is written.
	failedCells := 0

	text := *jsonFlag != "-"
	switch cmd {
	case "pathlen":
		ex := baseEx
		ex.PathLength = true
		var summaries []report.Summary
		failedCells += runExperiment(progs, scale, ex, manifest, text, func(p *ir.Program, rows []report.Row) {
			if text {
				report.WritePathLengths(os.Stdout, p.Name, rows)
				report.WriteFusion(os.Stdout, p.Name, rows)
			}
			summaries = append(summaries, report.Summarise(p.Name, rows)...)
		})
		if text {
			report.WriteSummaries(os.Stdout, summaries)
		}
	case "critpath":
		ex := baseEx
		ex.CritPath = true
		failedCells += runExperiment(progs, scale, ex, manifest, text, func(p *ir.Program, rows []report.Row) {
			if text {
				report.WriteCritPaths(os.Stdout, p.Name, rows, false)
				report.WriteFusion(os.Stdout, p.Name, rows)
			}
		})
	case "scaledcp":
		ex := baseEx
		ex.Scaled = true
		if *latencyFlag != "" {
			f, err := os.Open(*latencyFlag)
			if err != nil {
				fatal(err)
			}
			lat, err := simeng.ParseLatencyConfig(f, nil)
			f.Close()
			if err != nil {
				fatal(err)
			}
			ex.Latencies = lat
		}
		failedCells += runExperiment(progs, scale, ex, manifest, text, func(p *ir.Program, rows []report.Row) {
			if text {
				report.WriteCritPaths(os.Stdout, p.Name, rows, true)
			}
		})
	case "windowcp":
		ex := baseEx
		ex.Windowed, ex.GCC12Only, ex.WindowStride = true, true, *strideFlag
		failedCells += runExperiment(progs, scale, ex, manifest, text, func(p *ir.Program, rows []report.Row) {
			if text {
				report.WriteWindowed(os.Stdout, p.Name, rows)
			}
		})
	case "mix":
		ex := baseEx
		ex.Mix = true
		failedCells += runExperiment(progs, scale, ex, manifest, text, func(p *ir.Program, rows []report.Row) {
			if text {
				report.WriteMix(os.Stdout, p.Name, rows)
			}
		})
	case "all":
		if text {
			report.Banner(os.Stdout, "isacmp: full reproduction", scale.String())
		}
		var summaries []report.Summary
		ex := baseEx
		ex.PathLength, ex.CritPath, ex.Scaled, ex.Windowed = true, true, true, true
		all, st, err := report.RunSuite(progs, ex)
		if err != nil {
			fatal(err)
		}
		manifest.Sched = st
		failedCells += report.CountFailures(all)
		for i, p := range progs {
			rows := all[i]
			report.AppendRows(manifest, p.Name, rows)
			if text {
				report.WritePathLengths(os.Stdout, p.Name, rows)
				report.WriteCritPaths(os.Stdout, p.Name, rows, false)
				report.WriteCritPaths(os.Stdout, p.Name, rows, true)
				report.WriteFusion(os.Stdout, p.Name, rows)
			}
			gcc12 := rows[:0:0]
			for _, r := range rows {
				if r.Target.Flavor == isacmp.GCC12 {
					gcc12 = append(gcc12, r)
				}
			}
			if text {
				report.WriteWindowed(os.Stdout, p.Name, gcc12)
			}
			summaries = append(summaries, report.Summarise(p.Name, rows)...)
		}
		if text {
			report.WriteSummaries(os.Stdout, summaries)
		}
	case "run":
		cfg := runCmdConfig{
			core:         *coreFlag,
			cache:        *cacheFlag,
			fusion:       fusionCfg,
			target:       *targetFlag,
			trace:        *traceFlag,
			traceFormat:  *traceFormatFlag,
			traceCap:     *traceCapFlag,
			traceSample:  *traceSampleFlag,
			parallel:     *parallelFlag,
			progress:     *progressFlag,
			text:         text,
			cellTimeout:  *cellTimeoutFlag,
			maxInst:      *maxInstFlag,
			retries:      *retriesFlag,
			backoff:      *retryBackoffFlag,
			failFast:     *failFastFlag,
			log:          log,
			runID:        runID,
			board:        board,
			flightDir:    *flightDirFlag,
			flightEvents: *flightEventsFlag,
			ctx:          hardCtx,
			drain:        drainCtx,
			durable:      drun,
		}
		n, err := runInstrumented(progs, cfg, reg, manifest)
		if err != nil {
			fatal(err)
		}
		failedCells += n
	case "artifacts":
		if err := report.WriteArtifacts(*dirFlag, progs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote kernelCounts.txt, basicCPResult.txt, scaledCPResult.txt, windowAverages.txt to %s/\n", *dirFlag)
	case "disasm":
		if err := disasm(progs, *kernelFlag, *targetFlag); err != nil {
			fatal(err)
		}
	case "trace":
		if err := trace(progs, *kernelFlag, *targetFlag, *countFlag); err != nil {
			fatal(err)
		}
	case "blocks":
		if err := hotBlocks(progs, *targetFlag, *countFlag); err != nil {
			fatal(err)
		}
	case "verify":
		for _, p := range progs {
			for _, tgt := range isacmp.Targets() {
				bin, err := isacmp.Compile(p, tgt)
				if err != nil {
					fatal(err)
				}
				if err := bin.Verify(); err != nil {
					fatal(err)
				}
				fmt.Printf("%-12s %-18s OK\n", p.Name, tgt)
			}
		}
	default:
		usage()
		os.Exit(2)
	}

	if drun != nil {
		st := drun.Stats()
		manifest.Durable = &st
	}
	manifest.Finish(startTime, reg)
	if *jsonFlag != "" {
		sp := profiler.Start(profiler.CoordinatorLane(), prof.StageManifestWrite, "", "")
		err := manifest.WriteFile(*jsonFlag)
		sp.End()
		if err != nil {
			fatal(err)
		}
	}
	if *profileTraceFlag != "" {
		f, err := os.Create(*profileTraceFlag)
		if err != nil {
			fatal(err)
		}
		if err := profiler.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if err := telemetry.WriteMemProfile(*memProfile); err != nil {
		fatal(err)
	}
	if failedCells > 0 {
		fmt.Fprintf(os.Stderr, "isacmp: %d matrix cell(s) FAILED; see the FAILED table rows and the manifest failures block\n", failedCells)
		os.Exit(report.ExitPartial)
	}
}

// runExperiment fans the whole (workload, target) matrix over the
// experiment's worker pool, then appends and prints the rows in the
// fixed workload/target order — output is deterministic regardless of
// completion order or -parallel value. It returns the number of
// FAILED cells (continue-on-error mode leaves them as FAILED rows).
func runExperiment(progs []*ir.Program, scale workloads.Scale, ex report.Experiment, manifest *telemetry.Manifest, text bool, write func(*ir.Program, []report.Row)) int {
	if text {
		report.Banner(os.Stdout, "isacmp", scale.String())
	}
	all, st, err := report.RunSuite(progs, ex)
	if err != nil {
		fatal(err)
	}
	manifest.Sched = st
	for i, p := range progs {
		report.AppendRows(manifest, p.Name, all[i])
		write(p, all[i])
	}
	return report.CountFailures(all)
}

// runCmdConfig carries the `run` subcommand's knobs.
type runCmdConfig struct {
	core        string
	cache       bool
	fusion      fusion.Config
	target      string
	trace       string
	traceFormat string
	traceCap    int
	traceSample uint64
	parallel    int
	progress    bool
	text        bool
	cellTimeout time.Duration
	maxInst     uint64
	retries     int
	backoff     time.Duration
	failFast    bool

	log          *slog.Logger
	runID        string
	board        *obs.Board
	flightDir    string
	flightEvents int

	// Durability and interrupt wiring (see installDrainHandler): ctx
	// hard-cancels in-flight cells, drain stops new work gracefully,
	// durable is the shared crash-safety handle.
	ctx     context.Context
	drain   context.Context
	durable *isacmp.DurableRun
}

// instrCell is one (workload, target) slot of the run subcommand.
type instrCell struct {
	prog    *ir.Program
	tgt     isacmp.Target
	rec     isacmp.RunRecord
	tracer  *isacmp.PipelineTrace
	failure *telemetry.FailureRecord
	// served marks a cell replayed from the durability journal or
	// content cache instead of computed (nil-Result contract of
	// RunInstrumented); the status board already saw its terminal
	// transition.
	served bool
}

// runInstrumented is the `run` subcommand: execute each selected
// benchmark on the chosen core model with full telemetry — whole-run
// metrics, per-sink overhead, optional pipeline trace — and append
// one record per run to the manifest. The (workload, target) cells fan
// out over the -parallel worker pool; records are collected into
// per-cell slots and printed in the fixed loop order afterwards, so
// the table and manifest are deterministic for every worker count.
// With a single cell the parallelism budget moves inside the run (the
// fan-out analysis engine) instead.
//
// Cells run under the same resilience policy as the matrix engine:
// guarded, retried, deadline-reaped; failed cells print FAILED rows
// and land in the manifest failures block. The FAILED-cell count is
// returned so main can exit with the partial code.
func runInstrumented(progs []*ir.Program, cfg runCmdConfig, reg *telemetry.Registry, manifest *telemetry.Manifest) (int, error) {
	var targets []isacmp.Target
	if cfg.target == "all" {
		targets = isacmp.Targets()
	} else {
		tgt, err := parseTarget(cfg.target)
		if err != nil {
			return 0, err
		}
		targets = []isacmp.Target{tgt}
	}

	var cells []*instrCell
	for _, p := range progs {
		for _, tgt := range targets {
			cells = append(cells, &instrCell{prog: p, tgt: tgt})
			cfg.board.Register(p.Name, tgt.String())
		}
	}
	inner := 1
	if len(cells) == 1 {
		inner = cfg.parallel
	}
	cfg.board.SetWorkers(sched.DefaultWorkers(cfg.parallel))

	root := cfg.ctx
	if root == nil {
		root = context.Background()
	}
	ctx, cancel := context.WithCancel(root)
	defer cancel()
	var firstFail atomic.Value
	pool := sched.NewPool(cfg.parallel, reg)
	pool.Log = cfg.log
	for _, c := range cells {
		c := c
		pool.Go(func() {
			c.failure = runInstrumentedCell(ctx, c, cfg, reg, inner)
			if c.failure != nil && cfg.failFast {
				firstFail.CompareAndSwap(nil, c.failure)
				cancel()
			}
		})
	}
	pool.Close()
	st := pool.Stats()
	manifest.Sched = &st
	if n, first := pool.Panics(); n > 0 {
		return 0, fmt.Errorf("%d run cell(s) panicked past every guard; first: %s", n, first)
	}
	if f, ok := firstFail.Load().(*telemetry.FailureRecord); ok {
		return 0, fmt.Errorf("%s/%s failed (%s): %s", f.Workload, f.Target, f.Reason, f.Message)
	}

	failed := 0
	if cfg.text {
		fmt.Printf("%-12s %-18s %-10s %14s %14s %8s %10s %10s\n",
			"workload", "target", "core", "instructions", "cycles", "IPC", "Minst/s", "wall")
	}
	for _, c := range cells {
		if f := c.failure; f != nil {
			failed++
			manifest.Failures = append(manifest.Failures, *f)
			if cfg.text {
				fmt.Printf("%-12s %-18s FAILED(%s) after %d attempt(s)\n",
					c.prog.Name, c.tgt, f.Reason, f.Attempts)
			}
			continue
		}
		manifest.Runs = append(manifest.Runs, c.rec)
		if cfg.text {
			fmt.Printf("%-12s %-18s %-10s %14d %14d %8.2f %10.1f %9.3fs\n",
				c.prog.Name, c.tgt, c.rec.Core.Model, c.rec.Core.Instructions, c.rec.Core.Cycles,
				c.rec.Core.IPC(), c.rec.MIPS, c.rec.WallSeconds)
		}
		if c.tracer != nil {
			path := tracePath(cfg.trace, c.prog.Name, c.tgt, len(cells))
			if err := writeTrace(c.tracer, path, cfg.traceFormat); err != nil {
				return failed, err
			}
			if cfg.text {
				fmt.Printf("  pipeline trace: %s (%d spans, %d overwritten)\n",
					path, len(c.tracer.Spans()), c.tracer.Dropped())
			}
		}
	}
	return failed, nil
}

// runInstrumentedCell runs one cell with retries; it returns nil on
// success (filling c.rec/c.tracer) or the cell's failure record.
func runInstrumentedCell(ctx context.Context, c *instrCell, cfg runCmdConfig, reg *telemetry.Registry, inner int) *telemetry.FailureRecord {
	workload, target := c.prog.Name, c.tgt.String()
	clog := slogx.OrNop(cfg.log).With(slogx.KeyWorkload, workload, slogx.KeyTarget, target)
	attempts := cfg.retries + 1
	var history []telemetry.AttemptRecord
	var last *simeng.SimError
	postmortem := ""
	var drainCh <-chan struct{}
	if cfg.drain != nil {
		drainCh = cfg.drain.Done()
	}
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 && cfg.backoff > 0 {
			// Context-aware backoff: a pending sleep never delays
			// cancellation or a graceful drain.
			select {
			case <-time.After(cfg.backoff << (attempt - 2)):
			case <-ctx.Done():
			case <-drainCh:
			}
		}
		if cause := ctx.Err(); cause != nil || (cfg.drain != nil && cfg.drain.Err() != nil) {
			if cause == nil {
				cause = cfg.drain.Err()
			}
			last = simeng.WithCell(&simeng.SimError{Kind: simeng.ErrDeadline, Err: cause},
				workload, target)
			history = append(history, telemetry.AttemptRecord{
				Attempt: attempt, Reason: simeng.Reason(last), Message: last.Error(),
			})
			break
		}
		cfg.board.Running(workload, target, attempt)
		err := runInstrumentedAttempt(ctx, c, cfg, reg, inner, attempt)
		if err == nil {
			if attempt > 1 {
				c.rec.Retries = attempt - 1
			}
			if c.served {
				// RunInstrumented already drove the board through its
				// terminal served transition; feeding the replayed wall
				// time into the EWMAs would poison the ETA.
				clog.Debug("run cell served", slogx.KeyAttempt, attempt,
					"retired", c.rec.Core.Instructions)
				return nil
			}
			cfg.board.Done(workload, target, c.rec.WallSeconds, c.rec.Core.Instructions)
			clog.Debug("run cell done", slogx.KeyAttempt, attempt,
				"retired", c.rec.Core.Instructions, "wall_seconds", c.rec.WallSeconds)
			return nil
		}
		last = simeng.WithCell(err, workload, target)
		// RunInstrumented dumps post-mortems at deterministic paths; a
		// watchdog-abandoned attempt never dumps, so stat decides.
		if cfg.flightDir != "" {
			if p := obs.PostmortemPath(cfg.flightDir, workload, target, attempt); fileExists(p) {
				postmortem = p
			}
		}
		history = append(history, telemetry.AttemptRecord{
			Attempt: attempt, Reason: simeng.Reason(last), Message: last.Error(),
		})
		clog.Warn("run cell attempt failed", slogx.KeyAttempt, attempt,
			"reason", simeng.Reason(last), "err", last.Error())
		if errors.Is(last, simeng.ErrDeadline) && ctx.Err() != nil {
			break
		}
		if attempt < attempts {
			cfg.board.Retrying(workload, target, attempt, simeng.Reason(last))
		}
	}
	cfg.board.Failed(workload, target, len(history), simeng.Reason(last))
	clog.Error("run cell failed", "attempts", len(history), "reason", simeng.Reason(last))
	return &telemetry.FailureRecord{
		Workload:   workload,
		Target:     target,
		Reason:     simeng.Reason(last),
		Message:    last.Error(),
		PC:         last.PC,
		Retired:    last.Retired,
		Attempts:   len(history),
		History:    history,
		Postmortem: postmortem,
	}
}

// fileExists reports whether path names an existing file.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// runInstrumentedAttempt runs one attempt under the panic guard and,
// when -cell-timeout is set, a watchdog goroutine that reaps hung
// attempts. Results travel through the buffered channel so an
// abandoned attempt never races the caller's cell slot.
func runInstrumentedAttempt(ctx context.Context, c *instrCell, cfg runCmdConfig, reg *telemetry.Registry, inner, attempt int) error {
	cellCtx := ctx
	if cfg.cellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, cfg.cellTimeout)
		defer cancel()
	}
	type attemptResult struct {
		rec    isacmp.RunRecord
		tracer *isacmp.PipelineTrace
		served bool
		err    error
	}
	run := func() attemptResult {
		var res attemptResult
		res.err = simeng.Guard(func() error {
			bin, err := isacmp.Compile(c.prog, c.tgt)
			if err != nil {
				return err
			}
			rc := isacmp.RunConfig{
				Core:            cfg.core,
				Cache:           cfg.cache,
				Fusion:          cfg.fusion,
				Analyses:        isacmp.Analyses{Mix: true, Branches: true},
				Metrics:         reg,
				Parallel:        inner,
				Ctx:             cellCtx,
				MaxInstructions: cfg.maxInst,
				Log:             cfg.log,
				RunID:           cfg.runID,
				Attempt:         attempt,
				Status:          cfg.board,
				FlightDir:       cfg.flightDir,
				FlightEvents:    cfg.flightEvents,
				Durable:         cfg.durable,
			}
			if cfg.progress {
				rc.Progress = os.Stderr
				rc.ProgressFinalOnly = !slogx.IsTerminal(os.Stderr)
			}
			if cfg.trace != "" {
				res.tracer = isacmp.NewPipelineTrace(cfg.traceCap, cfg.traceSample)
				rc.Trace = res.tracer
			}
			out, rec, err := bin.RunInstrumented(rc)
			if err != nil {
				return err
			}
			res.rec = rec
			res.served = out == nil // nil-Result contract: served, not computed
			return nil
		})
		return res
	}
	apply := func(res attemptResult) error {
		if res.err != nil {
			return res.err
		}
		c.rec, c.tracer, c.served = res.rec, res.tracer, res.served
		return nil
	}
	if cfg.cellTimeout <= 0 {
		return apply(run())
	}
	ch := make(chan attemptResult, 1)
	go func() { ch <- run() }()
	select {
	case res := <-ch:
		return apply(res)
	case <-cellCtx.Done():
		return &simeng.SimError{Kind: simeng.ErrDeadline, Err: cellCtx.Err()}
	}
}

// tracePath derives a per-run trace filename when several runs would
// otherwise clobber one file.
func tracePath(base, workload string, tgt isacmp.Target, nruns int) string {
	if nruns == 1 {
		return base
	}
	tag := strings.NewReplacer("/", "-", " ", "").Replace(tgt.String())
	ext := ""
	stem := base
	if i := strings.LastIndex(base, "."); i > 0 {
		stem, ext = base[:i], base[i:]
	}
	return fmt.Sprintf("%s-%s-%s%s", stem, workload, tag, ext)
}

func writeTrace(t *isacmp.PipelineTrace, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "", "chrome":
		return t.WriteChromeTrace(f)
	case "jsonl":
		return t.WriteJSONL(f)
	default:
		return fmt.Errorf("unknown trace format %q (want chrome or jsonl)", format)
	}
}

func disasm(progs []*ir.Program, kernel, target string) error {
	tgt, err := parseTarget(target)
	if err != nil {
		return err
	}
	for _, p := range progs {
		bin, err := isacmp.Compile(p, tgt)
		if err != nil {
			return err
		}
		kernels := []string{kernel}
		if kernel == "" {
			kernels = kernels[:0]
			for _, k := range p.Kernels {
				kernels = append(kernels, k.Name)
			}
		}
		for _, k := range kernels {
			fmt.Printf("-- %s: %s (%s) --\n", p.Name, k, tgt)
			if err := bin.Disassemble(k, os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}

// trace runs each benchmark and prints the first n retired
// instructions (optionally only those inside one kernel region) with
// their disassembly and memory effects — a SimEng-style execution
// trace.
func trace(progs []*ir.Program, kernel, target string, n int) error {
	tgt, err := parseTarget(target)
	if err != nil {
		return err
	}
	for _, p := range progs {
		bin, err := isacmp.Compile(p, tgt)
		if err != nil {
			return err
		}
		var lo, hi uint64
		if kernel != "" {
			for _, s := range bin.Symbols() {
				if s.Name == kernel {
					lo, hi = s.Value, s.Value+s.Size
				}
			}
			if hi == 0 {
				return fmt.Errorf("no kernel %q in %s", kernel, p.Name)
			}
		}
		fmt.Printf("-- trace: %s (%s)%s --\n", p.Name, tgt, kernelSuffix(kernel))
		printed := 0
		_, err = bin.Run(isacmp.SinkFunc(func(ev *isacmp.Event) {
			if printed >= n {
				return
			}
			if hi != 0 && (ev.PC < lo || ev.PC >= hi) {
				return
			}
			line := disasmWord(tgt, ev.Word)
			mem := ""
			if ev.LoadSize != 0 {
				mem += fmt.Sprintf("  [load %#x/%d]", ev.LoadAddr, ev.LoadSize)
			}
			if ev.StoreSize != 0 {
				mem += fmt.Sprintf("  [store %#x/%d]", ev.StoreAddr, ev.StoreSize)
			}
			if ev.Branch {
				taken := "not-taken"
				if ev.Taken {
					taken = "taken"
				}
				mem += "  [" + taken + "]"
			}
			fmt.Printf("%#08x: %-40s%s\n", ev.PC, line, mem)
			printed++
		}))
		if err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// hotBlocks prints the hottest dynamically discovered basic blocks of
// each benchmark — the paper's "basic code block" attribution — with a
// disassembly of the hottest one.
func hotBlocks(progs []*ir.Program, target string, n int) error {
	tgt, err := parseTarget(target)
	if err != nil {
		return err
	}
	for _, p := range progs {
		bin, err := isacmp.Compile(p, tgt)
		if err != nil {
			return err
		}
		prof := core.NewBlockProfile()
		if _, err := bin.Run(prof); err != nil {
			return err
		}
		fmt.Printf("-- hottest basic blocks: %s (%s) --\n", p.Name, tgt)
		blocks := prof.Hottest(n)
		syms := bin.Symbols()
		for _, blk := range blocks {
			region := ""
			for _, s := range syms {
				if blk.Start >= s.Value && blk.Start < s.Value+s.Size {
					region = s.Name
				}
			}
			fmt.Printf("%#08x..%#08x  %10d execs %12d insts (%5.1f%%)  %s\n",
				blk.Start, blk.End, blk.Execs, blk.Instructions, blk.Fraction*100, region)
		}
		if len(blocks) > 0 {
			fmt.Println("\nhottest block disassembly:")
			if err := disasmRange(bin, tgt, blocks[0].Start, blocks[0].End); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	return nil
}

// disasmRange prints the instructions in [lo, hi).
func disasmRange(bin *isacmp.Binary, tgt isacmp.Target, lo, hi uint64) error {
	words, base, err := textWords(bin)
	if err != nil {
		return err
	}
	for pc := lo; pc < hi; pc += 4 {
		idx := (pc - base) / 4
		if idx >= uint64(len(words)) {
			break
		}
		fmt.Printf("%#08x: %s\n", pc, disasmWord(tgt, words[idx]))
	}
	return nil
}

// textWords extracts the executable segment of the binary as words.
func textWords(bin *isacmp.Binary) ([]uint32, uint64, error) {
	img := bin.ELF()
	f, err := elfio.Read(img)
	if err != nil {
		return nil, 0, err
	}
	for _, seg := range f.Segments {
		if seg.Flags&elfio.PFX != 0 {
			words := make([]uint32, len(seg.Data)/4)
			for i := range words {
				words[i] = uint32(seg.Data[i*4]) | uint32(seg.Data[i*4+1])<<8 |
					uint32(seg.Data[i*4+2])<<16 | uint32(seg.Data[i*4+3])<<24
			}
			return words, seg.Vaddr, nil
		}
	}
	return nil, 0, fmt.Errorf("no text segment")
}

func kernelSuffix(kernel string) string {
	if kernel == "" {
		return ""
	}
	return ", kernel " + kernel
}

func disasmWord(tgt isacmp.Target, word uint32) string {
	if tgt.Arch == isacmp.AArch64 {
		inst, err := a64.Decode(word)
		if err != nil {
			return fmt.Sprintf(".word %#08x", word)
		}
		return inst.String()
	}
	inst, err := rv64.Decode(word)
	if err != nil {
		return fmt.Sprintf(".word %#08x", word)
	}
	return inst.String()
}

func parseScale(s string) (workloads.Scale, error) { return report.ParseScale(s) }

func parseTarget(s string) (isacmp.Target, error) {
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 {
		return isacmp.Target{}, usageError{fmt.Errorf("bad target %q (want e.g. aarch64-gcc12)", s)}
	}
	var t isacmp.Target
	switch parts[0] {
	case "aarch64", "arm":
		t.Arch = isacmp.AArch64
	case "rv64", "riscv":
		t.Arch = isacmp.RV64
	default:
		return t, usageError{fmt.Errorf("unknown architecture %q (want aarch64 or rv64)", parts[0])}
	}
	switch parts[1] {
	case "gcc9":
		t.Flavor = isacmp.GCC9
	case "gcc12":
		t.Flavor = isacmp.GCC12
	default:
		return t, usageError{fmt.Errorf("unknown compiler %q (want gcc9 or gcc12)", parts[1])}
	}
	return t, nil
}

func selectBenchmarks(name string, s workloads.Scale) ([]*ir.Program, error) {
	return report.SelectBenchmarks(name, s)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: isacmp <command> [flags]

commands:
  pathlen    per-kernel dynamic instruction counts    (Figure 1)
  critpath   critical path, ILP, ideal 2 GHz runtime  (Table 1)
  scaledcp   latency-scaled critical path             (Table 2)
  windowcp   mean ILP per ROB-sized window            (Figure 2)
  mix        instruction mix and branch density       (section 3.3)
  run        instrumented run: core stats, metrics, pipeline trace
  artifacts  write the four result files of the paper's artifact (A.6)
  trace      print a disassembled execution trace (-n, -kernel, -target)
  blocks     hottest dynamically-discovered basic blocks (-n, -target)
  all        everything above plus the ratio summary
  disasm     disassemble benchmark kernels
  verify     check simulated results against the host reference

flags: -scale tiny|small|paper   -bench <name>   -parallel <n> (0 = all CPUs)
  -fusion off|rv64|a64|both[:rule,...] (macro-op fusion pass; rules:
    loadpair storepair addld addst slliadd luiaddi cmpbranch)
  (disasm) -kernel <k> -target <a>-<c>

resilience: -cell-timeout <d>  -max-instructions <n>  -retries <n>
  -retry-backoff <d>  -fail-fast
  exit codes: 0 ok, 1 fatal, 2 usage, 3 partial (FAILED cells)

durability: -durable-dir <dir> (write-ahead cell journal + content-
  addressed result cache; SIGINT/SIGTERM drains gracefully, a second
  aborts)  -resume <dir> (replay the journal, verify hashes, recompute
  only unfinished cells; the manifest is byte-identical after
  canonicalization to an uninterrupted run)

observability: -json <f> (run manifest; "-" = stdout)  -progress
  -cpuprofile <f>  -memprofile <f>
  -serve <addr> (live /metrics /statusz /profilez /events /healthz
    /debug/pprof)
  -log-level debug|info|warn|error  -log-format text|json
  -flight-dir <dir>  -flight-events <n> (post-mortem ring on cell death)
  -profile (per-stage span timelines; /profilez, /statusz stage_seconds)
  -profile-trace <f> (Chrome-trace JSON of the span timelines at exit)
run: -workload <name> -target <t>|all -core emulation|inorder|ooo -cache
  -metrics-json <f>  -trace <f> -trace-format chrome|jsonl
  -trace-cap <n> -trace-sample <n>`)
}

// usageError marks bad user input (unknown names, invalid flag
// values); fatal maps it to the usage exit code.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// fatal prints the error and exits per the documented contract:
// ExitUsage (2) for bad user input, ExitFatal (1) for everything else.
func fatal(err error) {
	var ue usageError
	if errors.As(err, &ue) {
		usageFatal(err)
	}
	fmt.Fprintln(os.Stderr, "isacmp:", err)
	os.Exit(report.ExitFatal)
}

// usageFatal prints a one-line error plus a usage hint and exits with
// the usage code.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "isacmp:", err)
	fmt.Fprintln(os.Stderr, "run `isacmp` without arguments for usage")
	os.Exit(report.ExitUsage)
}
