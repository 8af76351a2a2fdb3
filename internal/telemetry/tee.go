package telemetry

import (
	"time"

	"isacmp/internal/isa"
)

// Tee delivers the per-retired-instruction event stream to several
// sinks in order, like isa.MultiSink, and times every call into every
// sink the way a fan-out consumer times its batches: two clock reads
// per sink per batch.
type Tee struct {
	sinks  []isa.Sink
	busyNs []int64
	n      uint64
}

// NewTee builds an empty instrumented tee. Attach sinks with Add.
func NewTee() *Tee { return &Tee{} }

// Add attaches a sink; events are forwarded in attachment order, and
// BusyNs reports in the same order. The tee does not keep name:
// callers label the entries BusyNs returns. It returns the tee for
// chaining.
func (t *Tee) Add(name string, s isa.Sink) *Tee {
	t.sinks = append(t.sinks, s)
	t.busyNs = append(t.busyNs, 0)
	return t
}

// Event forwards ev to every attached sink in order.
func (t *Tee) Event(ev *isa.Event) { t.Events(isa.One(ev)) }

// Events forwards a whole batch to every attached sink in order.
func (t *Tee) Events(evs []isa.Event) {
	if len(evs) == 0 {
		return
	}
	t.n += uint64(len(evs))
	for i, s := range t.sinks {
		start := time.Now()
		s.Events(evs)
		t.busyNs[i] += time.Since(start).Nanoseconds()
	}
}

// EventCount returns the number of events the tee has forwarded.
func (t *Tee) EventCount() uint64 { return t.n }

// BusyNs returns each sink's time inside its calls so far, in
// attachment order.
func (t *Tee) BusyNs() []int64 { return t.busyNs }

// SinkStats is one sink's row of a run: its events and the time spent
// inside it. The tee and the fan-out consumers time every call into a
// sink, so every event is timed.
type SinkStats struct {
	// Name is the label the sink was attached with.
	Name string `json:"name"`
	// Events is the number of events forwarded to the sink.
	Events uint64 `json:"events"`
	// SampledEvents is the number of events that were timed: all of
	// them, or 0 on a row that carries no time of its own.
	SampledEvents uint64 `json:"sampled_events"`
	// SampledNs is the measured time inside the sink.
	SampledNs uint64 `json:"sampled_ns"`
	// EstOverheadNs is the sink's whole cost, equal to SampledNs.
	EstOverheadNs uint64 `json:"est_overhead_ns"`
	// MeanNsPerEvent is the mean cost of one event.
	MeanNsPerEvent float64 `json:"mean_ns_per_event"`
}

// RunMetrics is the standard event-stream instrumentation: a sink
// that counts retired instructions, branches, taken branches, loads
// and stores. It touches no registry: the counts are read back with
// Counters once the cell retires and applied (or cached) as one
// atomic delta, so a failed or replayed attempt contributes exactly
// zero.
type RunMetrics struct {
	retired, branches, taken, loads, stores uint64
}

// NewCellMetrics returns an empty RunMetrics.
func NewCellMetrics() *RunMetrics { return &RunMetrics{} }

// Counters returns the standard counter map keyed by registry name —
// the per-cell counter delta the content cache records and a cache hit
// re-applies.
func (m *RunMetrics) Counters() map[string]uint64 {
	return map[string]uint64{
		"run.retired":        m.retired,
		"run.branches":       m.branches,
		"run.branches_taken": m.taken,
		"run.loads":          m.loads,
		"run.stores":         m.stores,
	}
}

// Event accumulates one retired instruction.
func (m *RunMetrics) Event(ev *isa.Event) { m.Events(isa.One(ev)) }

// Events accumulates a whole batch, counting it in locals.
func (m *RunMetrics) Events(evs []isa.Event) {
	var branches, taken, loads, stores uint64
	for i := range evs {
		ev := &evs[i]
		if ev.Branch {
			branches++
			if ev.Taken {
				taken++
			}
		}
		if ev.LoadSize != 0 {
			loads++
		}
		if ev.StoreSize != 0 {
			stores++
		}
	}
	m.retired += uint64(len(evs))
	m.branches += branches
	m.taken += taken
	m.loads += loads
	m.stores += stores
}
