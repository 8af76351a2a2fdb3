package report

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"isacmp/internal/durable"
)

// CLI-side durability and interrupt plumbing of cmd/isacmp's matrix
// subcommands.

// ArmDurability opens the crash-safety handle that a CLI's
// -durable-dir / -resume flags ask for: the content cache in that
// directory, which serves every cell an earlier run there finished.
// -resume is an alias of -durable-dir and wins when both are set.
// Returns nil when neither is set. The handle's warnings are routed
// through log.
func ArmDurability(durableDir, resumeDir string, log *slog.Logger) (*durable.Run, error) {
	dir := durableDir
	if resumeDir != "" {
		dir = resumeDir
	}
	if dir == "" {
		return nil, nil
	}
	run, err := durable.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	if log != nil {
		run.Warn = func(format string, args ...any) {
			log.Warn("durable: " + fmt.Sprintf(format, args...))
		}
	}
	return run, nil
}

// InstallDrainHandler arms the two-stage interrupt contract for a
// matrix run. The returned contexts are cancelled in order: drain on
// the first SIGINT/SIGTERM (no new cells start; in-flight cells
// finish and are cached; drained cells become FAILED(deadline) rows,
// so the process writes a valid partial manifest and exits
// ExitPartial), hard on the second (in-flight cells are reaped).
// After the second signal the handler detaches, so a third signal
// kills the process with the default disposition. Wire the results
// to Experiment.Ctx and Experiment.Drain.
func InstallDrainHandler(log *slog.Logger) (hard, drain context.Context) {
	hardCtx, hardCancel := context.WithCancel(context.Background())
	drainCtx, drainCancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		if log != nil {
			log.Warn("signal: draining — in-flight cells finish and are cached; interrupt again to abort them",
				"signal", s.String())
		}
		drainCancel()
		s = <-ch
		if log != nil {
			log.Warn("signal: aborting in-flight cells", "signal", s.String())
		}
		hardCancel()
		signal.Stop(ch)
	}()
	return hardCtx, drainCtx
}
