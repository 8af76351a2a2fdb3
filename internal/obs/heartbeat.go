package obs

import (
	"log/slog"
	"time"

	"isacmp/internal/obs/slogx"
	"isacmp/internal/telemetry"
)

// StartHeartbeat logs the -progress heartbeat of the run that drives
// b. As each computed cell finishes it logs one final "progress"
// record with the cell's retired count as the board shows it, its
// rate, and the time since its attempt started; served and failed
// cells get none. When every is positive it also logs, every interval,
// one record per running cell. The heartbeat reads the board, which
// the runner's meters feed, and subscribes to its transitions, so it
// adds no work per retired event.
//
// Call stop once: it ends the heartbeat and returns once every cell
// that finished before the call has been logged. A nil board or logger
// yields a stop that does nothing.
func StartHeartbeat(b *Board, log *slog.Logger, every time.Duration) (stop func()) {
	if b == nil || log == nil {
		return func() {}
	}
	ch := b.Subscribe()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var tick <-chan time.Time
		if every > 0 {
			t := time.NewTicker(every)
			defer t.Stop()
			tick = t.C
		}
		// started holds each cell's latest running transition.
		started := map[string]Event{}
		record := func(start Event, state CellState, retired uint64, now time.Time) {
			elapsed := now.Sub(start.Time)
			log.Info("progress", slogx.KeyWorkload, start.Workload, slogx.KeyTarget, start.Target,
				slogx.KeyAttempt, start.Attempt, "state", state, "retired", retired,
				"mips", telemetry.RateMIPS(retired, elapsed),
				"elapsed", elapsed.Truncate(time.Millisecond).String())
		}
		transition := func(ev Event) {
			k := cellKey(ev.Workload, ev.Target)
			if start, ok := started[k]; ok && ev.State == CellDone && ev.Source == "" {
				record(start, CellDone, ev.Retired, ev.Time)
			} else if ev.State == CellRunning {
				started[k] = ev
			}
		}
		for {
			select {
			case ev := <-ch:
				transition(ev)
			case now := <-tick:
				for _, c := range b.Status().Cells {
					if start, ok := started[cellKey(c.Workload, c.Target)]; ok && c.State == CellRunning {
						record(start, CellRunning, c.Retired, now)
					}
				}
			case <-quit:
				// The board sends without blocking, so every transition
				// made before stop is already in the channel.
				for {
					select {
					case ev := <-ch:
						transition(ev)
					default:
						return
					}
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		b.Unsubscribe(ch)
	}
}
