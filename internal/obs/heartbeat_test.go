package obs

import (
	"context"
	"log/slog"
	"sync"
	"testing"
	"time"

	"isacmp/internal/telemetry"
)

// recordLog is a slog handler that keeps every record's attributes.
type recordLog struct {
	mu   sync.Mutex
	recs []map[string]any
}

func (l *recordLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *recordLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *recordLog) WithGroup(string) slog.Handler            { return l }

func (l *recordLog) Handle(_ context.Context, r slog.Record) error {
	m := map[string]any{"msg": r.Message}
	r.Attrs(func(a slog.Attr) bool {
		m[a.Key] = a.Value.Any()
		return true
	})
	l.mu.Lock()
	l.recs = append(l.recs, m)
	l.mu.Unlock()
	return nil
}

// records returns the records logged with the given state.
func (l *recordLog) records(state CellState) []map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []map[string]any
	for _, r := range l.recs {
		if r["state"] == state {
			out = append(out, r)
		}
	}
	return out
}

// TestHeartbeatFinalOnly: without an interval the heartbeat logs one
// record per computed cell as it finishes, carrying the retired count
// the board shows, the attempt, and a rate over the time from the
// attempt's running transition to its done transition. Served and
// failed cells, and running cells, log nothing.
func TestHeartbeatFinalOnly(t *testing.T) {
	b := NewBoard("run-hb", nil)
	for _, tgt := range []string{"computed", "retried", "cache", "failed"} {
		b.Register("w", tgt)
	}
	watch := b.Subscribe()
	log := &recordLog{}
	stop := StartHeartbeat(b, slog.New(log), 0)

	b.Running("w", "computed", 1)
	b.Running("w", "retried", 1)
	b.Running("w", "failed", 1)
	time.Sleep(20 * time.Millisecond)
	b.Progress("w", "computed", 1<<16)
	b.Done("w", "computed", 0.02, 123_456)
	b.Retrying("w", "retried", 1, "panic")
	b.Running("w", "retried", 2)
	b.Done("w", "retried", 0.01, 4_000)
	b.Served("w", "cache", 999)
	b.Failed("w", "failed", 1, "decode")
	stop()

	// The expected rate comes from the transitions' own timestamps.
	started, elapsed := map[string]time.Time{}, map[string]time.Duration{}
	for len(watch) > 0 {
		ev := <-watch
		switch ev.State {
		case CellRunning:
			started[ev.Target] = ev.Time
		case CellDone:
			elapsed[ev.Target] = ev.Time.Sub(started[ev.Target])
		}
	}
	if n := len(log.records(CellRunning)); n != 0 {
		t.Errorf("final-only heartbeat logged %d running records", n)
	}
	done := log.records(CellDone)
	want := []struct {
		target  string
		attempt int64
		retired uint64
	}{{"computed", 1, 123_456}, {"retried", 2, 4_000}}
	if len(done) != len(want) {
		t.Fatalf("final records %v, want one each for %v", done, want)
	}
	for i, w := range want {
		r := done[i]
		if r["msg"] != "progress" || r["workload"] != "w" || r["target"] != w.target ||
			r["attempt"] != w.attempt || r["retired"] != w.retired {
			t.Errorf("final record %v, want %s attempt %d with %d retired", r, w.target, w.attempt, w.retired)
		}
		d := elapsed[w.target]
		if mips := telemetry.RateMIPS(w.retired, d); r["mips"] != mips || mips == 0 {
			t.Errorf("%s: mips %v, want %v (%d retired over %v)", w.target, r["mips"], mips, w.retired, d)
		}
		if r["elapsed"] != d.Truncate(time.Millisecond).String() {
			t.Errorf("%s: elapsed %v, want %v", w.target, r["elapsed"], d)
		}
	}
	if d := elapsed["computed"]; d < 20*time.Millisecond {
		t.Errorf("computed cell's attempt lasted %v, want at least the 20ms it ran", d)
	}
}

// TestHeartbeatPeriodic: with an interval the heartbeat also logs each
// running cell's retired count as the board shows it, and stop still
// waits for the final record of a cell that finished before it.
func TestHeartbeatPeriodic(t *testing.T) {
	b := NewBoard("run-hb", nil)
	b.Register("w", "slow")
	b.Register("w", "idle")
	log := &recordLog{}
	stop := StartHeartbeat(b, slog.New(log), time.Millisecond)

	// The count goes up before the cell runs, so no tick can see it
	// running at zero.
	b.Progress("w", "slow", 5_000)
	b.Running("w", "slow", 1)
	deadline := time.Now().Add(10 * time.Second)
	for len(log.records(CellRunning)) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.Done("w", "slow", 0.1, 6_000)
	stop()

	running := log.records(CellRunning)
	if len(running) < 2 {
		t.Fatalf("periodic heartbeat logged %d running records, want at least 2", len(running))
	}
	for _, r := range running {
		if r["target"] != "slow" || r["retired"] != uint64(5_000) || r["attempt"] != int64(1) {
			t.Errorf("running record %v, want the slow cell's attempt 1 at 5000 retired", r)
		}
	}
	if done := log.records(CellDone); len(done) != 1 || done[0]["retired"] != uint64(6_000) {
		t.Errorf("final records %v, want the slow cell's at 6000 retired", done)
	}
}

// TestHeartbeatNilBoard: a run without a board has nothing to watch.
func TestHeartbeatNilBoard(t *testing.T) {
	StartHeartbeat(nil, slog.New(&recordLog{}), time.Millisecond)()
}
