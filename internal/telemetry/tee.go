package telemetry

import (
	"slices"
	"time"

	"isacmp/internal/isa"
)

// Tee fans the per-retired-instruction event stream out to several
// sinks in order, like isa.MultiSink, while accounting what each sink
// costs. Timing every event would double the price of cheap sinks, so
// the tee samples: every SamplePeriod-th event is forwarded under a
// timer and the measured nanoseconds are scaled up by the period to
// estimate total overhead. Ordering is preserved on both paths.
type Tee struct {
	// SamplePeriod is the event-sampling interval for overhead timing,
	// rounded up to a power of two so the hot path tests a mask instead
	// of dividing. 0 means DefaultSamplePeriod; 1 times every event.
	SamplePeriod uint64

	sinks []isa.Sink
	names []string
	n     uint64
	mask  uint64 // resolved SamplePeriod - 1; 0 until first event
	// sampled per-sink accounting, parallel to sinks.
	sampledNs     []uint64
	sampledEvents []uint64
	// rm, when non-nil, is fed inline — see CountRunMetrics.
	rm *RunMetrics
}

// DefaultSamplePeriod is the default timing-sample interval. A power
// of two keeps the hot-path modulo a mask; the value trades estimate
// resolution against the cost of the timer pairs themselves (a
// million-instruction run still takes a few hundred samples per sink).
const DefaultSamplePeriod = 4096

// clockNs estimates the cost of one start/stop timer pair, measured
// once at package init and subtracted from every sample so the
// reported per-sink cost is the sink's own work, not the clock's.
var clockNs = func() uint64 {
	const n = 256
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	return uint64(time.Since(start)) / n
}()

// NewTee builds an empty instrumented tee. Attach sinks with Add.
func NewTee() *Tee { return &Tee{} }

// resolvePeriod rounds period up to a power of two (>= 1), applying
// the default for 0.
func resolvePeriod(period uint64) uint64 {
	if period == 0 {
		return DefaultSamplePeriod
	}
	p := uint64(1)
	for p < period {
		p <<= 1
	}
	return p
}

// Add attaches a named sink; events are forwarded in attachment order.
// It returns the tee for chaining.
func (t *Tee) Add(name string, s isa.Sink) *Tee {
	t.sinks = append(t.sinks, s)
	t.names = append(t.names, name)
	t.sampledNs = append(t.sampledNs, 0)
	t.sampledEvents = append(t.sampledEvents, 0)
	return t
}

// Event forwards ev to every attached sink in order.
func (t *Tee) Event(ev *isa.Event) {
	if t.n == 0 {
		t.mask = resolvePeriod(t.SamplePeriod) - 1
	}
	t.n++
	if m := t.rm; m != nil {
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
	}
	if t.n&t.mask != 0 {
		for _, s := range t.sinks {
			s.Event(ev)
		}
		return
	}
	for i, s := range t.sinks {
		start := time.Now()
		s.Event(ev)
		ns := uint64(time.Since(start))
		if ns > clockNs {
			ns -= clockNs
		} else {
			ns = 0
		}
		t.sampledNs[i] += ns
		t.sampledEvents[i]++
	}
}

// Events forwards a whole batch to every attached sink in order —
// the isa.BatchSink fast path. Overhead accounting improves under
// batching: instead of sampling every SamplePeriod-th event, the tee
// times every batch delivery (two clock reads per sink per batch cost
// about what one sampled event did), so SampledEvents covers the
// whole stream.
func (t *Tee) Events(evs []isa.Event) {
	if len(evs) == 0 {
		return
	}
	if t.n == 0 {
		t.mask = resolvePeriod(t.SamplePeriod) - 1
	}
	t.n += uint64(len(evs))
	if m := t.rm; m != nil {
		for i := range evs {
			ev := &evs[i]
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
		}
	}
	for i, s := range t.sinks {
		start := time.Now()
		isa.DeliverBatch(s, evs)
		ns := uint64(time.Since(start))
		if ns > clockNs {
			ns -= clockNs
		} else {
			ns = 0
		}
		t.sampledNs[i] += ns
		t.sampledEvents[i] += uint64(len(evs))
	}
}

// CountRunMetrics feeds m inline as events pass through the tee,
// instead of attaching it as a separate sink: the per-event counting
// happens inside Tee.Event with no extra dynamic dispatch, which is
// what keeps whole-run instrumentation inside the observability
// budget. Counts become visible in m's registry after m.Flush (the
// inline path does not flush periodically). It returns the tee for
// chaining.
func (t *Tee) CountRunMetrics(m *RunMetrics) *Tee {
	t.rm = m
	return t
}

// EventCount returns the number of events the tee has forwarded.
func (t *Tee) EventCount() uint64 { return t.n }

// SinkStats reports the cost accounting for one attached sink.
type SinkStats struct {
	// Name is the label the sink was attached with.
	Name string `json:"name"`
	// Events is the number of events forwarded to the sink.
	Events uint64 `json:"events"`
	// SampledEvents is the number of events that were timed.
	SampledEvents uint64 `json:"sampled_events"`
	// SampledNs is the measured time inside the sink across the
	// sampled events.
	SampledNs uint64 `json:"sampled_ns"`
	// EstOverheadNs extrapolates SampledNs to all events.
	EstOverheadNs uint64 `json:"est_overhead_ns"`
	// MeanNsPerEvent is the mean sampled cost of one event.
	MeanNsPerEvent float64 `json:"mean_ns_per_event"`
}

// Stats returns per-sink cost accounting in attachment order.
func (t *Tee) Stats() []SinkStats {
	out := make([]SinkStats, len(t.sinks))
	for i := range t.sinks {
		s := SinkStats{
			Name:          t.names[i],
			Events:        t.n,
			SampledEvents: t.sampledEvents[i],
			SampledNs:     t.sampledNs[i],
		}
		if s.SampledEvents > 0 {
			s.MeanNsPerEvent = float64(s.SampledNs) / float64(s.SampledEvents)
			s.EstOverheadNs = uint64(s.MeanNsPerEvent * float64(t.n))
		}
		out[i] = s
	}
	return out
}

// AddCarriedRow inserts a row named name after the row named host, for
// an analysis the host's sink computes in the same pass. The new row
// counts the host's events and carries no sampled time: the host's row
// holds the time of the whole pass.
func AddCarriedRow(rows []SinkStats, host, name string) []SinkStats {
	for i, r := range rows {
		if r.Name == host {
			return slices.Insert(rows, i+1, SinkStats{Name: name, Events: r.Events})
		}
	}
	return rows
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
// Counters once the cell retires and applied (or journaled) as one
// atomic delta.
func NewCellMetrics() *RunMetrics { return &RunMetrics{} }

// Counters flushes and returns the standard counter map keyed by
// registry name — the per-cell counter delta the durability journal
// records and replay re-applies. Only meaningful in cell mode.
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
