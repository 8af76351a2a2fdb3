package obs

import (
	"testing"
	"time"

	"isacmp/internal/isa"
	"isacmp/internal/telemetry"
)

// TestBoardLifecycle drives two cells through the full state machine
// and checks the /statusz document: per-state tallies, registration
// order, the throughput EWMAs and a positive ETA while work remains.
func TestBoardLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("sched.q0.depth").Set(2)
	b := NewBoard("run-1", reg)
	b.SetWorkers(2)
	b.Register("stream", "rv64")
	b.Register("stream", "a64")
	b.Register("lbm", "rv64")

	doc := b.Status()
	if doc.Schema != StatusSchema || doc.RunID != "run-1" {
		t.Fatalf("schema/run_id = %s/%s", doc.Schema, doc.RunID)
	}
	if doc.States["pending"] != 3 || len(doc.Cells) != 3 {
		t.Fatalf("want 3 pending cells, got %+v", doc.States)
	}
	if doc.Cells[0].Workload != "stream" || doc.Cells[2].Workload != "lbm" {
		t.Errorf("cells must keep registration order: %+v", doc.Cells)
	}
	if doc.QueueDepths["sched.q0.depth"] != 2 {
		t.Errorf("queue depths = %+v, want sched.q0.depth=2", doc.QueueDepths)
	}

	b.Running("stream", "rv64", 1)
	b.Done("stream", "rv64", 2.0, 4_000_000)
	b.Running("stream", "a64", 1)
	b.Retrying("stream", "a64", 1, "mem-fault")
	b.Running("stream", "a64", 2)
	b.Failed("stream", "a64", 2, "mem-fault")

	doc = b.Status()
	if doc.States["done"] != 1 || doc.States["failed"] != 1 || doc.States["pending"] != 1 {
		t.Fatalf("states = %+v, want one each of done/failed/pending", doc.States)
	}
	if doc.EWMACellSeconds != 2.0 {
		t.Errorf("ewma seconds = %v, want 2 after a single sample", doc.EWMACellSeconds)
	}
	if doc.EWMAMIPS != 2.0 { // 4M retired / 2s / 1e6
		t.Errorf("ewma mips = %v, want 2", doc.EWMAMIPS)
	}
	// one pending cell, EWMA 2s, 2 workers => ETA 1s.
	if doc.ETASeconds != 1.0 {
		t.Errorf("eta = %v, want 1", doc.ETASeconds)
	}
	for _, c := range doc.Cells {
		if c.Workload == "stream" && c.Target == "a64" {
			if c.State != CellFailed || c.Reason != "mem-fault" || c.Attempt != 2 {
				t.Errorf("failed cell = %+v", c)
			}
		}
	}

	// A second Done folds into the EWMA rather than replacing it.
	b.Running("lbm", "rv64", 1)
	b.Done("lbm", "rv64", 4.0, 4_000_000)
	doc = b.Status()
	want := ewmaAlpha*4.0 + (1-ewmaAlpha)*2.0
	if d := doc.EWMACellSeconds - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("ewma seconds = %v, want ~%v", doc.EWMACellSeconds, want)
	}
	if doc.ETASeconds != 0 {
		t.Errorf("eta = %v, want 0 once no cell remains", doc.ETASeconds)
	}
}

// TestBoardEvents: every transition reaches a subscriber with a
// strictly increasing sequence number, and a full subscriber buffer
// drops events instead of blocking the matrix.
func TestBoardEvents(t *testing.T) {
	b := NewBoard("run-ev", nil)
	ch := b.Subscribe()
	defer b.Unsubscribe(ch)

	b.Running("stream", "rv64", 1)
	b.Done("stream", "rv64", 1.0, 100)

	ev1, ev2 := <-ch, <-ch
	if ev1.State != CellRunning || ev2.State != CellDone {
		t.Fatalf("events = %v then %v, want running then done", ev1.State, ev2.State)
	}
	if ev1.RunID != "run-ev" || ev1.Workload != "stream" || ev1.Target != "rv64" {
		t.Errorf("event identity = %+v", ev1)
	}
	if ev2.Seq <= ev1.Seq {
		t.Errorf("seq must increase: %d then %d", ev1.Seq, ev2.Seq)
	}

	// Fill the buffer past capacity without reading: transitions must
	// not block (this would deadlock the test if they did) and the
	// overflow is dropped, visible as a sequence gap after draining.
	for i := 0; i < cap(ch)+64; i++ {
		b.Running("stream", "rv64", i)
	}
	drained := 0
	for len(ch) > 0 {
		<-ch
		drained++
	}
	if drained != cap(ch) {
		t.Errorf("drained %d events, want exactly the buffer cap %d", drained, cap(ch))
	}
}

// TestServedCellsExcludedFromETA pins the -resume ETA contract: cells
// served from the journal or content cache never feed the throughput
// EWMAs (their replay takes microseconds and says nothing about how
// fast the remaining cells will compute), and they surface instead as
// the separate served counts + served_per_second resumed rate.
func TestServedCellsExcludedFromETA(t *testing.T) {
	b := NewBoard("run-resume", nil)
	b.SetWorkers(1)
	b.Register("stream", "rv64")
	b.Register("stream", "a64")
	b.Register("lbm", "rv64")
	b.Register("lbm", "a64")

	// Two cells replay instantly from the durability layer...
	b.Served("stream", "rv64", "journal", false, "", 1_000_000)
	b.Served("stream", "a64", "cache", false, "", 1_000_000)
	doc := b.Status()
	if doc.EWMACellSeconds != 0 || doc.EWMAMIPS != 0 {
		t.Fatalf("served cells fed the EWMAs: secs=%v mips=%v", doc.EWMACellSeconds, doc.EWMAMIPS)
	}
	if doc.ETASeconds != 0 {
		t.Fatalf("ETA from served cells alone = %v, want 0 (no throughput evidence yet)", doc.ETASeconds)
	}
	if doc.Served["journal"] != 1 || doc.Served["cache"] != 1 {
		t.Fatalf("served split = %+v", doc.Served)
	}
	if doc.ServedPerSecond <= 0 {
		t.Fatalf("served_per_second = %v, want > 0 once cells were replayed", doc.ServedPerSecond)
	}

	// ...then one real cell computes in 4s: the ETA for the last
	// pending cell must come from the computed pace alone. Had the two
	// served cells fed the EWMA, it would read ~a third of this.
	b.Running("lbm", "rv64", 1)
	b.Done("lbm", "rv64", 4.0, 4_000_000)
	doc = b.Status()
	if doc.EWMACellSeconds != 4.0 {
		t.Fatalf("ewma seconds = %v, want 4.0 from the computed cell only", doc.EWMACellSeconds)
	}
	if doc.ETASeconds != 4.0 {
		t.Fatalf("eta = %v, want 4.0 (1 remaining cell / 1 worker at computed pace)", doc.ETASeconds)
	}

	// A board with no served cells reports no resumed rate at all.
	fresh := NewBoard("run-fresh", nil)
	fresh.Register("w", "t")
	if doc := fresh.Status(); doc.ServedPerSecond != 0 {
		t.Fatalf("fresh run served_per_second = %v, want 0", doc.ServedPerSecond)
	}
}

// TestNilBoard: every method is a no-op on a nil board so unserved
// runs can drive the calls unconditionally, and NewMeter returns a nil
// meter (whose Flush is also safe).
func TestNilBoard(t *testing.T) {
	var b *Board
	b.SetWorkers(4)
	b.Register("w", "t")
	b.Running("w", "t", 1)
	b.Retrying("w", "t", 1, "x")
	b.Done("w", "t", 1, 1)
	b.Failed("w", "t", 1, "x")
	b.Progress("w", "t", 10)
	b.Unsubscribe(b.Subscribe())
	if b.RunID() != "" {
		t.Error("nil board must have empty run ID")
	}
	doc := b.Status()
	if doc.Schema != StatusSchema || len(doc.Cells) != 0 {
		t.Errorf("nil board status = %+v", doc)
	}
	m := NewMeter(nil, "w", "t")
	if m != nil {
		t.Fatal("NewMeter(nil board) must return nil")
	}
	m.Flush() // must not panic
}

// TestMeterCounts: the meter counts events on both delivery paths and
// reports the exact retired count to the board after Flush, and on its
// own once a stride of events has passed.
func TestMeterCounts(t *testing.T) {
	b := NewBoard("run-m", nil)
	b.Register("w", "t")

	m := NewMeter(b, "w", "t")
	var ev isa.Event
	m.Event(&ev)
	m.Events(make([]isa.Event, 7))
	if got := b.Status().Cells[0].Retired; got != 0 {
		t.Errorf("board retired = %d before Flush, want 0", got)
	}
	m.Flush()
	if got := b.Status().Cells[0].Retired; got != 8 {
		t.Errorf("board retired = %d, want 8", got)
	}

	m2 := NewMeter(b, "w", "t")
	m2.Events(make([]isa.Event, meterStride))
	if got := b.Status().Cells[0].Retired; got != meterStride {
		t.Errorf("stride flush: retired = %d, want %d", got, meterStride)
	}
}

// TestSlowSubscriberDropsCounted pins the drop-not-stall contract of
// the /events fan-out: a subscriber that never drains loses events
// past its buffer, the board counts every delivery and every drop on
// /statusz and in the obs.* registry counters, and the transitions
// themselves never block.
func TestSlowSubscriberDropsCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBoard("run-drop", reg)
	slow := b.Subscribe() // never drained: fills its 256 buffer, then drops
	defer b.Unsubscribe(slow)

	const transitions = 400 // > the subscriber buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < transitions; i++ {
			b.Running("w", "t", 1)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("transitions stalled behind a slow subscriber")
	}

	doc := b.Status()
	wantSent := uint64(cap(slow))
	wantDropped := uint64(transitions) - wantSent
	if doc.EventsSent != wantSent || doc.EventsDropped != wantDropped {
		t.Errorf("statusz events sent/dropped = %d/%d, want %d/%d",
			doc.EventsSent, doc.EventsDropped, wantSent, wantDropped)
	}
	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["obs.events.sent"] != wantSent || counters["obs.events.dropped"] != wantDropped {
		t.Errorf("registry counters sent/dropped = %d/%d, want %d/%d",
			counters["obs.events.sent"], counters["obs.events.dropped"], wantSent, wantDropped)
	}

	// A draining subscriber on a fresh board records sends only.
	b2 := NewBoard("run-ok", nil)
	ch := b2.Subscribe()
	defer b2.Unsubscribe(ch)
	b2.Running("w", "t", 1)
	<-ch
	if doc := b2.Status(); doc.EventsSent != 1 || doc.EventsDropped != 0 {
		t.Errorf("drained subscriber: sent/dropped = %d/%d, want 1/0", doc.EventsSent, doc.EventsDropped)
	}
}
