// Command windowcp regenerates Figure 2: mean ILP per window size for
// the GCC 12.2 binaries, sliding windows of 4 to 2000 instructions
// over the dynamic stream with 50% overlap.
//
// Usage: windowcp [-scale tiny|small|paper] [-bench name]
// [-stride n] [-parallel n] [-json file] [-progress]
// [-cpuprofile file] [-memprofile file] [-durable-dir d] [-resume d]
//
// -durable-dir arms crash-safe running (write-ahead cell journal plus
// content-addressed result cache); -resume replays such a directory
// and recomputes only unfinished cells. SIGINT/SIGTERM drains
// gracefully; a second signal aborts in-flight cells.
//
// -parallel fans the (benchmark, target) matrix over n analysis
// workers (0, the default, uses every CPU; 1 is strictly sequential),
// and shards each cell's windowed-CP computation over the workers the
// cells leave idle, when that is at least two per cell. Results and
// report text are byte-identical for every value.
//
// -stride overrides the paper's size/2 window stride (the
// commit-width knob section 6 leaves unexplored). With -json the run
// manifest (schema isacmp/run-manifest/v1, with the per-window-size
// series per run) is written to the given file, "-" for stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"isacmp/internal/fusion"
	"isacmp/internal/obs"
	"isacmp/internal/obs/slogx"
	"isacmp/internal/report"
	"isacmp/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "small", "problem size: tiny, small or paper")
	benchFlag := flag.String("bench", "", "single benchmark to run")
	strideFlag := flag.Int("stride", 0, "window stride in instructions (0 = the paper's size/2)")
	fusionFlag := flag.String("fusion", "off", "macro-op fusion: off, rv64, a64 or both, optionally :rule,rule,... (see internal/fusion)")
	jsonFlag := flag.String("json", "", "write a run manifest to this file (\"-\" for stdout)")
	parallelFlag := flag.Int("parallel", 0, "analysis workers (0 = all CPUs, 1 = sequential); results are identical for every value")
	progressFlag := flag.Bool("progress", false, "print a retire-rate heartbeat to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file")
	cellTimeoutFlag := flag.Duration("cell-timeout", 0, "per-cell wall-clock deadline; overrunning cells become FAILED rows (0 disables)")
	retriesFlag := flag.Int("retries", 0, "re-attempts per failed cell before marking it FAILED")
	retryBackoffFlag := flag.Duration("retry-backoff", 100*time.Millisecond, "sleep before the first retry, doubling each further retry")
	failFastFlag := flag.Bool("fail-fast", false, "cancel the whole matrix on the first cell failure")
	serveFlag := flag.String("serve", "", "serve /metrics, /statusz, /events and pprof on this address for the duration of the run")
	logLevelFlag := flag.String("log-level", "info", "structured log threshold: debug, info, warn or error")
	logFormatFlag := flag.String("log-format", "text", "structured log encoding on stderr: text or json")
	durableDirFlag := flag.String("durable-dir", "", "arm crash-safe running: write-ahead cell journal + content-addressed result cache in this directory")
	resumeFlag := flag.String("resume", "", "resume an interrupted run from this durability directory: replay the journal, recompute only unfinished cells")
	flag.Parse()

	scale, err := report.ParseScale(*scaleFlag)
	if err != nil {
		usageFatal(err)
	}
	progs, err := report.SelectBenchmarks(*benchFlag, scale)
	if err != nil {
		usageFatal(err)
	}
	fusionCfg, err := fusion.ParseSpec(*fusionFlag)
	if err != nil {
		usageFatal(err)
	}
	stopCPU, err := telemetry.StartCPUProfile(*cpuProfile)
	if err != nil {
		fatal(err)
	}
	defer stopCPU()

	reg := telemetry.NewRegistry()
	runID := obs.NewRunID()
	log, err := slogx.New(os.Stderr, *logLevelFlag, *logFormatFlag)
	if err != nil {
		usageFatal(err)
	}
	log = log.With(slogx.KeyRunID, runID)
	board := obs.NewBoard(runID, reg)
	drun, err := report.ArmDurability(*durableDirFlag, *resumeFlag, log)
	if err != nil {
		fatal(err)
	}
	if drun != nil {
		defer drun.Close()
	}
	hardCtx, drainCtx := report.InstallDrainHandler(log)
	ex := report.Experiment{
		Windowed: true, GCC12Only: true, WindowStride: *strideFlag,
		Metrics: reg, Fusion: fusionCfg, Parallel: *parallelFlag,
		CellTimeout: *cellTimeoutFlag, Retries: *retriesFlag,
		RetryBackoff: *retryBackoffFlag, FailFast: *failFastFlag,
		Log: log, RunID: runID, Status: board,
		Ctx: hardCtx, Drain: drainCtx, Durable: drun,
	}
	if *progressFlag {
		ex.Progress = os.Stderr
		ex.ProgressFinalOnly = !slogx.IsTerminal(os.Stderr)
	}
	if err := ex.Validate(); err != nil {
		usageFatal(err)
	}
	manifest := telemetry.NewManifest("windowcp", scale.String())
	manifest.Obs = &telemetry.ObsConfig{RunID: runID, LogLevel: *logLevelFlag, LogFormat: *logFormatFlag}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *serveFlag != "" {
		srv, err := obs.StartServer(ctx, obs.ServerConfig{Addr: *serveFlag, Registry: reg, Board: board, Log: log})
		if err != nil {
			fatal(err)
		}
		srv.SetReady(true)
		defer srv.Close()
		manifest.Obs.ServeAddr = srv.Addr()
		log.Info("observability server listening", "addr", srv.Addr())
	}
	start := time.Now()

	text := *jsonFlag != "-"
	if text {
		report.Banner(os.Stdout, "windowcp: Figure 2", scale.String())
	}
	all, st, err := report.RunSuite(progs, ex)
	if err != nil {
		fatal(err)
	}
	manifest.Sched = st
	for i, p := range progs {
		rows := all[i]
		if text {
			report.WriteWindowed(os.Stdout, p.Name, rows)
			report.WriteFusion(os.Stdout, p.Name, rows)
		}
		report.AppendRows(manifest, p.Name, rows)
	}

	if drun != nil {
		st := drun.Stats()
		manifest.Durable = &st
	}
	manifest.Finish(start, reg)
	if *jsonFlag != "" {
		if err := manifest.WriteFile(*jsonFlag); err != nil {
			fatal(err)
		}
	}
	if err := telemetry.WriteMemProfile(*memProfile); err != nil {
		fatal(err)
	}
	if n := report.CountFailures(all); n > 0 {
		fmt.Fprintf(os.Stderr, "windowcp: %d matrix cell(s) FAILED\n", n)
		os.Exit(report.ExitPartial)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "windowcp:", err)
	os.Exit(report.ExitFatal)
}

func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "windowcp:", err)
	fmt.Fprintln(os.Stderr, "run `windowcp -h` for usage")
	os.Exit(report.ExitUsage)
}
