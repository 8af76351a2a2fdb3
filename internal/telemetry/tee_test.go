package telemetry

import (
	"maps"
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

// spinSink spins in every call.
type spinSink struct{ calls int }

func (s *spinSink) Event(ev *isa.Event) { s.Events(isa.One(ev)) }
func (s *spinSink) Events([]isa.Event)  { s.calls++; spin() }

// TestTeeTimesEveryCall verifies the tee times every call into every
// sink: each sink's busy time covers all of its calls, each of which
// spins for at least spinFor. A single event is a call of its own, and
// an empty batch reaches no sink.
func TestTeeTimesEveryCall(t *testing.T) {
	a, b := &spinSink{}, &spinSink{}
	tee := NewTee().Add("a", a).Add("b", b)
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
	busy := tee.BusyNs()
	for i, s := range []*spinSink{a, b} {
		if s.calls != 7 {
			t.Fatalf("sink %d: %d calls, want 7", i, s.calls)
		}
		if want := int64(s.calls) * spinFor.Nanoseconds(); busy[i] < want {
			t.Fatalf("sink %d: busy %d ns over %d calls, want at least %d", i, busy[i], s.calls, want)
		}
	}
}

// TestRunMetricsBatchSplit verifies that RunMetrics counts one large
// batch exactly as it counts the same events delivered one at a time.
func TestRunMetricsBatchSplit(t *testing.T) {
	kinds := []isa.Event{
		{}, {Branch: true}, {Branch: true, Taken: true},
		{LoadSize: 4}, {StoreSize: 8}, {LoadSize: 8, StoreSize: 8},
	}
	const reps = 1 << 14
	batch := make([]isa.Event, len(kinds)*reps)
	for i := range batch {
		batch[i] = kinds[i%len(kinds)]
	}
	whole, single := NewCellMetrics(), NewCellMetrics()
	whole.Events(batch)
	for i := range batch {
		single.Event(&batch[i])
	}
	want := map[string]uint64{
		"run.retired": 6 * reps, "run.branches": 2 * reps, "run.branches_taken": reps,
		"run.loads": 2 * reps, "run.stores": 2 * reps,
	}
	for name, m := range map[string]*RunMetrics{"one batch": whole, "one at a time": single} {
		if got := m.Counters(); !maps.Equal(got, want) {
			t.Errorf("%s: counters %v, want %v", name, got, want)
		}
	}
}
