package telemetry

import (
	"testing"
	"time"

	"isacmp/internal/isa"
)

// TestTeeOrdering verifies the tee forwards every event to every sink
// in attachment order.
func TestTeeOrdering(t *testing.T) {
	var order []int
	tee := NewTee()
	for i := 0; i < 3; i++ {
		i := i
		tee.Add("sink", isa.SinkFunc(func(ev *isa.Event) { order = append(order, i) }))
	}
	var ev isa.Event
	const events = 4
	for i := 0; i < events; i++ {
		tee.Event(&ev)
	}
	if tee.EventCount() != events {
		t.Fatalf("events = %d, want %d", tee.EventCount(), events)
	}
	if len(order) != events*3 {
		t.Fatalf("forwarded %d calls, want %d", len(order), events*3)
	}
	for i, got := range order {
		if want := i % 3; got != want {
			t.Fatalf("call %d went to sink %d, want %d (order %v)", i, got, want, order)
		}
	}
}

// spin busy-waits for at least spinFor, so each call into a spinning
// sink lasts at least that long.
const spinFor = 20 * time.Microsecond

func spin() {
	for start := time.Now(); time.Since(start) < spinFor; {
	}
}

// spinSink spins in every call; batched it takes whole batches.
type spinSink struct{ calls int }

func (s *spinSink) Event(*isa.Event) { s.calls++; spin() }

type spinBatchSink struct{ spinSink }

func (s *spinBatchSink) Events([]isa.Event) { s.calls++; spin() }

// TestTeeTimesEveryCall verifies the tee times every call into every
// sink, per event and per batch: each sink's busy time covers all of
// its calls, each of which spins for at least spinFor.
func TestTeeTimesEveryCall(t *testing.T) {
	perEvent, batched := &spinSink{}, &spinBatchSink{}
	tee := NewTee().Add("per-event", perEvent).Add("batched", batched)
	var ev isa.Event
	batch := make([]isa.Event, 3)
	for i := 0; i < 5; i++ {
		tee.Event(&ev)
	}
	for i := 0; i < 2; i++ {
		tee.Events(batch)
	}
	tee.Events(nil)
	if got := tee.EventCount(); got != 5+2*3 {
		t.Fatalf("events = %d, want 11", got)
	}
	// The per-event sink takes each batch event by event.
	if perEvent.calls != 11 || batched.calls != 7 {
		t.Fatalf("calls: per-event %d, want 11; batched %d, want 7", perEvent.calls, batched.calls)
	}
	busy := tee.BusyNs()
	for i, calls := range []int{perEvent.calls, batched.calls} {
		if want := int64(calls) * spinFor.Nanoseconds(); busy[i] < want {
			t.Fatalf("sink %d: busy %d ns over %d calls, want at least %d", i, busy[i], calls, want)
		}
	}
}

func TestRunMetricsFlush(t *testing.T) {
	r := NewRegistry()
	m := NewRunMetrics(r)
	ev := isa.Event{Branch: true, Taken: true, LoadSize: 8}
	for i := 0; i < 100; i++ {
		m.Event(&ev)
	}
	// Before Flush the registry only sees full batches (none here).
	pre := r.Snapshot()
	if got := pre.Counter("run.retired"); got != 0 {
		t.Fatalf("unflushed retired = %d, want 0", got)
	}
	m.Flush()
	s := r.Snapshot()
	if s.Counter("run.retired") != 100 || s.Counter("run.branches") != 100 ||
		s.Counter("run.branches_taken") != 100 || s.Counter("run.loads") != 100 ||
		s.Counter("run.stores") != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Flush is idempotent: locals were zeroed.
	m.Flush()
	post := r.Snapshot()
	if got := post.Counter("run.retired"); got != 100 {
		t.Fatalf("double flush retired = %d, want 100", got)
	}

	// A batch below flushPeriod stays local; a batch that straddles it
	// is flushed whole once its last event is counted. The totals match
	// per-event delivery of the same stream.
	kinds := []isa.Event{{Branch: true}, {Branch: true, Taken: true}, {LoadSize: 4}, {StoreSize: 8}}
	batch := make([]isa.Event, flushPeriod/2+10)
	for i := range batch {
		batch[i] = kinds[i%len(kinds)]
	}
	m.Events(batch)
	mid := r.Snapshot()
	if got := mid.Counter("run.retired"); got != 100 {
		t.Fatalf("retired after a batch below flushPeriod = %d, want 100", got)
	}
	m.Events(batch)
	perEvent := NewRegistry()
	pm := NewRunMetrics(perEvent)
	for i := 0; i < 100; i++ {
		pm.Event(&ev)
	}
	for range 2 {
		for i := range batch {
			pm.Event(&batch[i])
		}
	}
	pm.Flush()
	got, want := r.Snapshot(), perEvent.Snapshot()
	if n := got.Counter("run.retired"); n != 100+2*uint64(len(batch)) {
		t.Fatalf("retired after a straddling batch = %d, want %d", n, 100+2*len(batch))
	}
	for _, name := range []string{"run.retired", "run.branches", "run.branches_taken", "run.loads", "run.stores"} {
		if got.Counter(name) != want.Counter(name) {
			t.Errorf("%s: batched %d, per-event %d", name, got.Counter(name), want.Counter(name))
		}
	}
}
