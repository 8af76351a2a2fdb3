package simeng

import "isacmp/internal/isa"

// OoOModel is a trace-driven timing model of an out-of-order
// superscalar core with a finite reorder buffer — the machine the
// paper's windowed critical-path analysis approximates, and the model
// its section 8 plans to study. It assumes perfect branch prediction
// and unlimited physical registers (so only true RAW dependencies,
// execution latency, dispatch width and ROB occupancy limit progress),
// plus store-to-load forwarding through memory.
//
// It implements isa.Sink: feed it the event stream, then read Stats.
type OoOModel struct {
	// Width is the dispatch/retire width per cycle.
	Width int
	// ROBSize bounds the number of instructions in flight.
	ROBSize int
	// Latencies supplies per-group execution latencies.
	Latencies *LatencyModel
	// TrackMemory enables RAW chains through memory (store forwarding
	// with the producing store's completion time).
	TrackMemory bool
	// DCache, when non-nil, adds a cache-miss penalty to loads.
	DCache *Cache
	// MSHRs bounds the number of outstanding cache misses (miss status
	// holding registers); 0 means 8. Only meaningful with DCache: an
	// unbounded-MSHR machine hides streaming misses completely under a
	// large ROB, which is not how real L1Ds behave.
	MSHRs int
	// Tracer, when non-nil, receives per-instruction pipeline timing.
	Tracer PipelineObserver

	mshrBusy []uint64

	srcStalls  uint64 // cycles instructions waited on sources
	robStalls  uint64 // cycles dispatch waited for a ROB slot
	robFullHit uint64 // dispatches that found the ROB full

	regReady  [isa.NumRegs]uint64
	memReady  map[uint64]uint64
	retire    []uint64 // ring buffer of retire cycles, ROBSize entries
	head      int
	count     int
	insts     uint64
	lastCycle uint64

	dispatchCycle uint64
	dispatched    int
}

// NewOoOModel returns a TX2-flavoured model: 4-wide with a 128-entry
// reorder buffer.
func NewOoOModel() *OoOModel {
	return &OoOModel{Width: 4, ROBSize: 128, Latencies: TX2Latencies(), TrackMemory: true}
}

// Events accounts a whole batch, one instruction at a time.
func (m *OoOModel) Events(evs []isa.Event) {
	for i := range evs {
		m.Event(&evs[i])
	}
}

// Event accounts one retired instruction.
func (m *OoOModel) Event(ev *isa.Event) {
	if m.retire == nil {
		m.retire = make([]uint64, m.ROBSize)
		if m.TrackMemory {
			m.memReady = make(map[uint64]uint64, 1<<12)
		}
	}
	m.insts++

	// Dispatch: Width per cycle, and the ROB must have a free slot.
	dispatch := m.dispatchCycle
	if m.dispatched >= m.Width {
		dispatch++
	}
	if m.count == m.ROBSize {
		// Oldest in-flight instruction retires at m.retire[m.head]; we
		// may not dispatch before the cycle after its retirement.
		m.robFullHit++
		if r := m.retire[m.head] + 1; r > dispatch {
			m.robStalls += r - dispatch
			dispatch = r
		}
		m.head = (m.head + 1) % m.ROBSize
		m.count--
	}
	if dispatch != m.dispatchCycle {
		m.dispatchCycle = dispatch
		m.dispatched = 0
	}
	m.dispatched++

	// Execute when sources are ready.
	start := dispatch
	for k := uint8(0); k < ev.NSrcs; k++ {
		if r := m.regReady[ev.Srcs[k]]; r > start {
			start = r
		}
	}
	if m.TrackMemory && ev.LoadSize != 0 {
		first, last := wordSpan(ev.LoadAddr, ev.LoadSize)
		for w := first; w <= last; w += 8 {
			if r := m.memReady[w]; r > start {
				start = r
			}
		}
	}
	if m.TrackMemory && ev.Load2Size != 0 { // second access of a fused load pair
		first, last := wordSpan(ev.Load2Addr, ev.Load2Size)
		for w := first; w <= last; w += 8 {
			if r := m.memReady[w]; r > start {
				start = r
			}
		}
	}
	m.srcStalls += start - dispatch
	lat := uint64(m.Latencies.Latency(ev.Group))
	if m.DCache != nil && ev.LoadSize != 0 {
		if miss := m.DCache.Access(ev.LoadAddr); miss != 0 {
			// A miss needs an MSHR; when all are busy the load waits
			// for the earliest one to free.
			if m.mshrBusy == nil {
				n := m.MSHRs
				if n <= 0 {
					n = 8
				}
				m.mshrBusy = make([]uint64, n)
			}
			best := 0
			for i, t := range m.mshrBusy {
				if t < m.mshrBusy[best] {
					best = i
				}
			}
			if m.mshrBusy[best] > start {
				start = m.mshrBusy[best]
			}
			lat += uint64(miss)
			m.mshrBusy[best] = start + lat
		}
	}
	if m.DCache != nil && ev.Load2Size != 0 {
		// Second access of a fused load pair: the dual-ported LSU issues
		// it alongside the first, so a miss adds latency but claims no
		// extra MSHR slot of its own.
		lat += uint64(m.DCache.Access(ev.Load2Addr))
	}
	if m.DCache != nil && ev.StoreSize != 0 {
		m.DCache.Access(ev.StoreAddr) // allocate-on-write, no stall
	}
	done := start + lat
	for k := uint8(0); k < ev.NDsts; k++ {
		m.regReady[ev.Dsts[k]] = done
	}
	if m.TrackMemory && ev.StoreSize != 0 {
		first, last := wordSpan(ev.StoreAddr, ev.StoreSize)
		for w := first; w <= last; w += 8 {
			m.memReady[w] = done
		}
	}

	// Retire in order.
	if done < m.lastCycle {
		done = m.lastCycle
	}
	m.lastCycle = done
	tail := (m.head + m.count) % m.ROBSize
	m.retire[tail] = done
	m.count++

	if m.Tracer != nil {
		m.Tracer.ObserveRetire(ev, dispatch, start, done)
	}
}

// Stats returns the accumulated counts; Cycles is the retire time of
// the last instruction.
func (m *OoOModel) Stats() Stats {
	return Stats{Instructions: m.insts, Cycles: m.lastCycle}
}

// PipelineStats returns the shared-base stats plus the out-of-order
// pipeline counters.
func (m *OoOModel) PipelineStats() PipelineStats {
	ps := PipelineStats{
		Stats:              m.Stats(),
		Model:              "ooo",
		SrcStallCycles:     m.srcStalls,
		ROBFullStallCycles: m.robStalls,
		ROBFullEvents:      m.robFullHit,
	}
	if m.DCache != nil {
		ps.CacheHits, ps.CacheMisses = m.DCache.Hits(), m.DCache.Misses()
	}
	return ps
}

// wordSpan returns the first and last 8-byte-aligned words covered by
// an access; callers iterate from first to last in steps of 8.
func wordSpan(addr uint64, size uint8) (first, last uint64) {
	return addr &^ 7, (addr + uint64(size) - 1) &^ 7
}
