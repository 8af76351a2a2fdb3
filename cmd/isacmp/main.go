// Command isacmp regenerates every table and figure of the paper from
// one binary; run it from the repository root as
// `go run ./cmd/isacmp <command> [flags]` (the command comes first):
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
// runs. -latency-file replaces the TX2 latencies of Table 2 (scaledcp,
// all and artifacts); -stride sets the window stride of Figure 2.
// Every subcommand that prints a table or writes the artifact files
// runs its (benchmark, target) cells through report.RunSuite, run
// included.
//
// Observability flags (every subcommand): -json writes a run manifest
// (schema isacmp/run-manifest/v2); -progress logs cell retire rates
// from the status board; -cpuprofile/-memprofile write pprof profiles;
// -serve ADDR exposes /metrics (Prometheus text), /statusz (live
// matrix state), /events (SSE lifecycle stream), /healthz, /readyz
// and /debug/pprof for the duration of the command; -log-level and
// -log-format control the structured stderr log; -flight-dir arms the
// per-cell flight recorder (post-mortem JSON on cell death, ring size
// -flight-events); -profile records per-stage span timelines on
// per-worker lanes (served on /profilez, summarized on /statusz,
// exported as Chrome-trace JSON via -profile-trace or
// /profilez?format=chrome). The run subcommand adds -core
// emulation|inorder|ooo, -cache, -target <t>|all, -metrics-json (alias
// of -json), -trace (Chrome-trace JSON of pipeline timing, loadable in
// chrome://tracing), -trace-format chrome|jsonl, -trace-cap and
// -trace-sample.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"isacmp"

	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/obs"
	"isacmp/internal/obs/slogx"
	"isacmp/internal/prof"
	"isacmp/internal/report"
	"isacmp/internal/sched"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
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
	latencyFlag := fs.String("latency-file", "", "latency config file overriding the TX2 model of Table 2 (scaledcp, all, artifacts)")
	countFlag := fs.Int("n", 32, "instructions to print (trace)")
	strideFlag := fs.Int("stride", 0, "window stride in instructions (windowcp, all, artifacts; 0 = size/2)")
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
	progressFlag := fs.Bool("progress", false, "log each cell's retire rate to stderr when it finishes (and every 2s while it runs, on a terminal)")
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
	durableDirFlag := fs.String("durable-dir", "", "arm crash-safe running: file every finished cell in a content-addressed result cache in this directory, and serve the cells it already holds")
	resumeFlag := fs.String("resume", "", "alias of -durable-dir that wins when both are set: rerun an interrupted run over this directory, computing only the cells its cache lacks")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(report.ExitUsage)
	}
	if *workloadFlag != "" {
		*benchFlag = *workloadFlag
	}
	if *metricsJSONFlag != "" {
		*jsonFlag = *metricsJSONFlag
	}

	scale, err := report.ParseScale(*scaleFlag)
	if err != nil {
		usageFatal(err)
	}
	fusionCfg, err := fusion.ParseSpec(*fusionFlag)
	if err != nil {
		usageFatal(err)
	}
	progs, err := report.SelectBenchmarks(*benchFlag, scale)
	if err != nil {
		usageFatal(err)
	}
	if f := *traceFormatFlag; f != "chrome" && f != "jsonl" {
		usageFatal(fmt.Errorf("unknown trace format %q (want chrome or jsonl)", f))
	}
	var lat *simeng.LatencyModel
	if *latencyFlag != "" {
		f, err := os.Open(*latencyFlag)
		if err != nil {
			fatal(err)
		}
		lat, err = simeng.ParseLatencyConfig(f, nil)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	// The experiment is selected and validated before any file is
	// created or any cell runs; the observers and the durability layer
	// are attached to it below.
	ex, matrix, err := experiment(cmd, report.Experiment{
		Fusion:          fusionCfg,
		Parallel:        *parallelFlag,
		WindowStride:    *strideFlag,
		Latencies:       lat,
		CellTimeout:     *cellTimeoutFlag,
		MaxInstructions: *maxInstFlag,
		Retries:         *retriesFlag,
		RetryBackoff:    *retryBackoffFlag,
		FailFast:        *failFastFlag,
		FlightDir:       *flightDirFlag,
		FlightEvents:    *flightEventsFlag,
	}, *coreFlag, *cacheFlag, *targetFlag)
	if err == nil {
		err = ex.Validate()
	}
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

	// Crash-safety layer: -durable-dir (or its alias -resume) opens
	// the directory's content cache, so cells an earlier run finished
	// are served instead of recomputed.
	drun, err := report.ArmDurability(*durableDirFlag, *resumeFlag, log)
	if err != nil {
		fatal(err)
	}

	ex.Metrics, ex.Log, ex.RunID, ex.Status, ex.Prof, ex.Durable = reg, log, runID, board, profiler, drun
	if cmd == "run" && *traceFlag != "" {
		ex.Trace = func() *telemetry.PipelineTrace {
			return telemetry.NewPipelineTrace(*traceCapFlag, *traceSampleFlag)
		}
	}
	// failedCells counts the FAILED rows of the subcommand; a partial
	// matrix exits with report.ExitPartial after the manifest is
	// written.
	failedCells := 0

	text := *jsonFlag != "-"
	if matrix {
		// Two-stage interrupt contract for long matrix runs: the first
		// SIGINT/SIGTERM drains (no new cells start; in-flight cells
		// finish and are cached; a valid partial manifest is written;
		// exit 3), the second hard-cancels in-flight cells, a third
		// falls back to the default signal disposition. Other
		// subcommands keep the default disposition throughout.
		ex.Ctx, ex.Drain = report.InstallDrainHandler(log)
		if text && cmd != "run" && cmd != "artifacts" {
			what := "isacmp"
			if cmd == "all" {
				what = "isacmp: full reproduction"
			}
			report.Banner(os.Stdout, what, scale.String())
		}
		stopProgress := func() {}
		if *progressFlag {
			// A heartbeat every 2 s on a terminal; piped or redirected
			// stderr gets only each cell's final record.
			var every time.Duration
			if slogx.IsTerminal(os.Stderr) {
				every = 2 * time.Second
			}
			stopProgress = obs.StartHeartbeat(board, log, every)
		}
		all, st, err := report.RunSuite(progs, ex)
		stopProgress()
		if err != nil {
			fatal(err)
		}
		manifest.Sched = st
		for i, p := range progs {
			report.AppendRows(manifest, p.Name, all[i])
		}
		failedCells = report.CountFailures(all)
		switch {
		case cmd == "run":
			err = writeRun(progs, all, text, *traceFlag, *traceFormatFlag)
		case cmd == "artifacts":
			err = report.WriteArtifacts(*dirFlag, progs, all)
			if err == nil && text {
				fmt.Printf("wrote kernelCounts.txt, basicCPResult.txt, scaledCPResult.txt, windowAverages.txt to %s/\n", *dirFlag)
			}
		case text:
			writeTables(cmd, progs, all)
		}
		if err != nil {
			fatal(err)
		}
	} else {
		switch cmd {
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

// experiment returns the matrix experiment subcommand cmd runs: base,
// which carries the knobs every subcommand shares (the latency model
// of -latency-file among them), with the analyses and target columns
// cmd selects, and for run the core, cache and target of run's own
// flags. ok is false for a subcommand that runs no matrix.
func experiment(cmd string, base report.Experiment, core string, cache bool, target string) (ex report.Experiment, ok bool, err error) {
	ex = base
	switch cmd {
	case "pathlen":
		ex.PathLength = true
	case "critpath":
		ex.CritPath = true
	case "scaledcp":
		ex.Scaled = true
	case "windowcp":
		ex.Windowed = true
		for _, tgt := range isacmp.Targets() {
			if tgt.Flavor == isacmp.GCC12 {
				ex.Columns = append(ex.Columns, tgt)
			}
		}
	case "mix":
		ex.Mix = true
	case "all", "artifacts":
		ex.PathLength, ex.CritPath, ex.Scaled, ex.Windowed = true, true, true, true
	case "run":
		ex.Mix, ex.Core, ex.Cache = true, core, cache
		if target != "all" {
			tgt, err := parseTarget(target)
			if err != nil {
				return ex, true, err
			}
			ex.Columns = []isacmp.Target{tgt}
		}
	default:
		return ex, false, nil
	}
	return ex, true, nil
}

// writeTables prints the paper tables of subcommand cmd for every
// program's rows, in the fixed workload/target order, so the text is
// the same for every -parallel value.
func writeTables(cmd string, progs []*ir.Program, all [][]report.Row) {
	w := os.Stdout
	var summaries []report.Summary
	for i, p := range progs {
		rows := all[i]
		switch cmd {
		case "pathlen":
			report.WritePathLengths(w, p.Name, rows)
			report.WriteFusion(w, p.Name, rows)
		case "critpath":
			report.WriteCritPaths(w, p.Name, rows, false)
			report.WriteFusion(w, p.Name, rows)
		case "scaledcp":
			report.WriteCritPaths(w, p.Name, rows, true)
			report.WriteFusion(w, p.Name, rows)
		case "windowcp":
			report.WriteWindowed(w, p.Name, rows)
		case "mix":
			report.WriteMix(w, p.Name, rows)
		case "all":
			report.WritePathLengths(w, p.Name, rows)
			report.WriteCritPaths(w, p.Name, rows, false)
			report.WriteCritPaths(w, p.Name, rows, true)
			report.WriteFusion(w, p.Name, rows)
			gcc12 := rows[:0:0]
			for _, r := range rows {
				if r.Target.Flavor == isacmp.GCC12 {
					gcc12 = append(gcc12, r)
				}
			}
			report.WriteWindowed(w, p.Name, gcc12)
		}
		summaries = append(summaries, report.Summarise(p.Name, rows)...)
	}
	if cmd == "pathlen" || cmd == "all" {
		report.WriteSummaries(w, summaries)
	}
}

// writeRun prints the run subcommand's table, one line of core stats
// per cell, and writes each traced cell's pipeline trace; with several
// cells each trace gets its own file (see tracePath).
func writeRun(progs []*ir.Program, all [][]report.Row, text bool, base, format string) error {
	if text {
		fmt.Printf("%-12s %-18s %-10s %14s %14s %8s %10s %10s\n",
			"workload", "target", "core", "instructions", "cycles", "IPC", "Minst/s", "wall")
	}
	cells := len(progs) * len(all[0])
	for i, p := range progs {
		for _, r := range all[i] {
			if f := r.Failure; f != nil {
				if text {
					fmt.Printf("%-12s %-18s FAILED(%s) after %d attempt(s)\n",
						p.Name, r.Target, f.Reason, f.Attempts)
				}
				continue
			}
			if text {
				fmt.Printf("%-12s %-18s %-10s %14d %14d %8.2f %10.1f %9.3fs\n",
					p.Name, r.Target, r.Core.Model, r.Core.Instructions, r.Core.Cycles,
					r.Core.IPC(), report.RowRecord(p.Name, r).MIPS, r.WallSeconds)
			}
			if r.Trace == nil {
				continue
			}
			path := tracePath(base, p.Name, r.Target, cells)
			if err := writeTrace(r.Trace, path, format); err != nil {
				return err
			}
			if text {
				fmt.Printf("  pipeline trace: %s (%d spans, %d overwritten)\n",
					path, len(r.Trace.Spans()), r.Trace.Dropped())
			}
		}
	}
	return nil
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

// writeTrace writes t to path as Chrome-trace JSON, or as JSONL when
// format is "jsonl" (main has checked the -trace-format value).
func writeTrace(t *telemetry.PipelineTrace, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if format == "jsonl" {
		return t.WriteJSONL(f)
	}
	return t.WriteChromeTrace(f)
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
			line := cc.Disasm(tgt.Arch, ev.Word)
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
			if err := bin.DisassembleRange(blocks[0].Start, blocks[0].End, os.Stdout); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	return nil
}

func kernelSuffix(kernel string) string {
	if kernel == "" {
		return ""
	}
	return ", kernel " + kernel
}

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
  -latency-file <f> (Table 2 latencies; scaledcp, all, artifacts)
  -stride <n> (Figure 2 window stride; windowcp, all, artifacts)
  (disasm) -kernel <k> -target <a>-<c>

resilience: -cell-timeout <d>  -max-instructions <n>  -retries <n>
  -retry-backoff <d>  -fail-fast
  exit codes: 0 ok, 1 fatal, 2 usage, 3 partial (FAILED cells)

durability: -durable-dir <dir> (content-addressed result cache: each
  finished cell is filed as it retires and served to any later run
  over <dir>; failed cells are recomputed; SIGINT/SIGTERM drains
  gracefully, a second aborts)  -resume <dir> (alias of -durable-dir;
  the rerun's manifest is byte-identical after canonicalization to an
  uninterrupted run)

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
