package telemetry

import (
	"time"

	"isacmp/internal/isa"
)

// Tee delivers the per-retired-instruction event stream to several
// sinks in order, like isa.MultiSink, and times every call into every
// sink, per event or per batch, the way a fan-out consumer times its
// batches. On the batched path that is two clock reads per sink per
// batch; a per-event caller pays two per sink per event.
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
func (t *Tee) Event(ev *isa.Event) {
	t.n++
	for i, s := range t.sinks {
		start := time.Now()
		s.Event(ev)
		t.busyNs[i] += time.Since(start).Nanoseconds()
	}
}

// Events forwards a whole batch to every attached sink in order —
// the isa.BatchSink fast path.
func (t *Tee) Events(evs []isa.Event) {
	if len(evs) == 0 {
		return
	}
	t.n += uint64(len(evs))
	for i, s := range t.sinks {
		start := time.Now()
		isa.DeliverBatch(s, evs)
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
// and stores. Counts accumulate in plain local fields — the event
// stream is single-goroutine — and flush either into a shared
// Registry (NewRunMetrics) or into local totals (NewCellMetrics, the
// transactional per-cell mode: nothing reaches any registry until the
// cell's counter map is applied, so a failed or replayed attempt
// contributes exactly zero).
type RunMetrics struct {
	retired, branches, taken, loads, stores uint64
	sinceFlush                              uint64

	// Registry mode: flush targets. All nil in cell mode.
	cRetired, cBranches, cTaken, cLoads, cStores *Counter
	// Cell mode: flushed totals.
	tRetired, tBranches, tTaken, tLoads, tStores uint64
}

const flushPeriod = 1 << 16

// NewRunMetrics registers the standard run counters ("run.retired",
// "run.branches", "run.branches_taken", "run.loads", "run.stores") in
// r and returns the feeding sink.
func NewRunMetrics(r *Registry) *RunMetrics {
	return &RunMetrics{
		cRetired:  r.Counter("run.retired"),
		cBranches: r.Counter("run.branches"),
		cTaken:    r.Counter("run.branches_taken"),
		cLoads:    r.Counter("run.loads"),
		cStores:   r.Counter("run.stores"),
	}
}

// NewCellMetrics returns a RunMetrics in transactional cell mode: it
// touches no registry; the accumulated counts are read back with
// Counters once the cell retires and applied (or cached) as one
// atomic delta.
func NewCellMetrics() *RunMetrics { return &RunMetrics{} }

// Counters flushes and returns the standard counter map keyed by
// registry name — the per-cell counter delta the content cache
// records and a cache hit re-applies. Only meaningful in cell mode.
func (m *RunMetrics) Counters() map[string]uint64 {
	m.Flush()
	return map[string]uint64{
		"run.retired":        m.tRetired,
		"run.branches":       m.tBranches,
		"run.branches_taken": m.tTaken,
		"run.loads":          m.tLoads,
		"run.stores":         m.tStores,
	}
}

// Event accumulates one retired instruction.
func (m *RunMetrics) Event(ev *isa.Event) {
	m.retired++
	if ev.Branch {
		m.branches++
		if ev.Taken {
			m.taken++
		}
	}
	if ev.LoadSize != 0 {
		m.loads++
	}
	if ev.StoreSize != 0 {
		m.stores++
	}
	if m.sinceFlush++; m.sinceFlush >= flushPeriod {
		m.Flush()
	}
}

// Events accumulates a whole batch — the isa.BatchSink fast path.
func (m *RunMetrics) Events(evs []isa.Event) {
	for i := range evs {
		m.Event(&evs[i])
	}
}

// Flush publishes the locally accumulated counts — to the registry in
// registry mode, to the local totals in cell mode. Call after the run
// completes (snapshots only see flushed counts).
func (m *RunMetrics) Flush() {
	if m.cRetired != nil {
		m.cRetired.Add(m.retired)
		m.cBranches.Add(m.branches)
		m.cTaken.Add(m.taken)
		m.cLoads.Add(m.loads)
		m.cStores.Add(m.stores)
	} else {
		m.tRetired += m.retired
		m.tBranches += m.branches
		m.tTaken += m.taken
		m.tLoads += m.loads
		m.tStores += m.stores
	}
	m.retired, m.branches, m.taken, m.loads, m.stores = 0, 0, 0, 0, 0
	m.sinceFlush = 0
}
