package simeng

import "isacmp/internal/isa"

// InOrderModel is a trace-driven timing model of a dual-issue in-order
// pipeline (Cortex-A55 / SiFive-7 class). Instructions issue strictly
// in program order, at most Width per cycle, and an instruction cannot
// issue before its register sources are ready. Taken branches pay a
// redirect penalty unless the simple static predictor (backward-taken
// / forward-not-taken, the classic loop heuristic) guessed right.
//
// It implements isa.Sink: feed it the emulation core's event stream,
// then read Cycles.
type InOrderModel struct {
	// Width is the issue width (2 for the cores under study).
	Width int
	// Latencies supplies per-group execution latencies.
	Latencies *LatencyModel
	// BranchPenalty is the pipeline refill cost of a redirect.
	BranchPenalty uint64
	// DCache, when non-nil, adds a cache-miss penalty to loads.
	DCache *Cache
	// Tracer, when non-nil, receives per-instruction pipeline timing.
	Tracer PipelineObserver

	regReady  [isa.NumRegs]uint64
	cycle     uint64 // cycle of the most recent issue
	issued    int    // instructions issued in `cycle`
	insts     uint64
	lastEnd   uint64
	srcStalls uint64 // cycles lost waiting on sources
	flushes   uint64 // mispredicted-branch redirects
}

// NewInOrderModel returns a dual-issue model with A55-style latencies
// and an 8-stage-pipeline branch penalty.
func NewInOrderModel() *InOrderModel {
	return &InOrderModel{Width: 2, Latencies: A55Latencies(), BranchPenalty: 7}
}

// Events accounts a whole batch, one instruction at a time.
func (m *InOrderModel) Events(evs []isa.Event) {
	for i := range evs {
		m.Event(&evs[i])
	}
}

// Event accounts one retired instruction.
func (m *InOrderModel) Event(ev *isa.Event) {
	m.insts++
	issue := m.cycle
	if m.issued >= m.Width {
		issue++
	}
	dispatch := issue
	// Wait for sources.
	for k := uint8(0); k < ev.NSrcs; k++ {
		if r := m.regReady[ev.Srcs[k]]; r > issue {
			issue = r
		}
	}
	m.srcStalls += issue - dispatch
	if issue != m.cycle {
		m.cycle = issue
		m.issued = 0
	}
	m.issued++

	lat := uint64(m.Latencies.Latency(ev.Group))
	if m.DCache != nil && ev.LoadSize != 0 {
		lat += uint64(m.DCache.Access(ev.LoadAddr))
	}
	if m.DCache != nil && ev.Load2Size != 0 { // second access of a fused load pair
		lat += uint64(m.DCache.Access(ev.Load2Addr))
	}
	if m.DCache != nil && ev.StoreSize != 0 {
		m.DCache.Access(ev.StoreAddr)
	}
	done := issue + lat
	for k := uint8(0); k < ev.NDsts; k++ {
		m.regReady[ev.Dsts[k]] = done
	}
	if done > m.lastEnd {
		m.lastEnd = done
	}

	// Static predict-taken: loop back edges dominate these workloads,
	// so a branch pays the redirect penalty only when it falls through
	// (the loop-exit case).
	if ev.Branch && !ev.Taken {
		m.cycle = issue + m.BranchPenalty
		m.issued = 0
		m.flushes++
	}
	if m.Tracer != nil {
		m.Tracer.ObserveRetire(ev, dispatch, issue, done)
	}
}

// Stats returns the accumulated instruction and cycle counts.
func (m *InOrderModel) Stats() Stats {
	return Stats{Instructions: m.insts, Cycles: m.lastEnd}
}

// PipelineStats returns the shared-base stats plus the in-order
// pipeline counters.
func (m *InOrderModel) PipelineStats() PipelineStats {
	ps := PipelineStats{
		Stats:          m.Stats(),
		Model:          "inorder",
		SrcStallCycles: m.srcStalls,
		BranchFlushes:  m.flushes,
	}
	if m.DCache != nil {
		ps.CacheHits, ps.CacheMisses = m.DCache.Hits(), m.DCache.Misses()
	}
	return ps
}
