// Package core implements the paper's four trace analyses: per-kernel
// path length (Figure 1), critical path / ILP / ideal runtime
// (Table 1), latency-scaled critical path (Table 2) and windowed
// critical path (Figure 2). All analyses are streaming sinks over the
// per-instruction event stream produced by a simeng core; no trace is
// ever materialised.
package core

import (
	"isacmp/internal/isa"
	"isacmp/internal/simeng"
)

// ClockHz is the clock speed the paper assumes when converting cycle
// counts to run times ("a 2GHz clockspeed, similar to that of modern
// day application level processors").
const ClockHz = 2e9

// CritPath tracks the longest chain of read-after-write dependencies
// through registers and memory, exactly as described in the paper's
// section 4.1: an array maintains the critical path length to the
// value held in each register and a map does the same per memory
// address; each instruction extends the longest chain among its
// sources by its own weight and records the result at its
// destinations. The zero register always reads zero chains and
// discards writes (the ISA executors never report it in events).
//
// NewCritPath weighs every instruction 1 (the Table 1 analysis).
// NewScaledCritPath weighs each by its group's latency, except loads
// and stores which weigh 1 because the paper assumes store forwarding
// (the Table 2 analysis). The two chains share every dependency edge
// and differ only in weights, so NewJointCritPath follows both in one
// walk over the events: each register and memory word keeps the unit
// length and the scaled length side by side in one 16-byte slot,
// where a one-chain tracker keeps 8 bytes.
type CritPath struct {
	// Latencies is the model the scaled chain is weighted by, nil for
	// a tracker of the unit chain alone. The constructors copy its
	// weights into the tracker.
	Latencies *simeng.LatencyModel

	// joint is set on a tracker of both chains, whose slots hold the
	// unit length (lane 0) then the scaled one (lane 1); see slot.
	joint bool
	// weight is each group's weight, per lane.
	weight [isa.NumGroups][2]uint64

	reg []uint64 // isa.NumRegs slots
	// mem and mem2 are the map fallback for words outside the dense
	// range, keyed by word address: a one-chain tracker keeps one
	// length per word in mem, a joint tracker both lengths in mem2.
	mem  map[uint64]uint64
	mem2 map[uint64][2]uint64
	// pages is a two-level page table over the configured span
	// [pageBase, pageBase+8*spanWords): a directory of lazily
	// allocated fixed-size pages. The data segment of a paper-scale
	// run holds tens of millions of words — far beyond what a map
	// handles economically — but a run touches only a fraction of it,
	// so pages materialize on first write and untouched regions cost
	// nothing. Addresses outside the span fall back to the map.
	pages     [][]uint64
	pageBase  uint64
	spanWords uint64
	max       [2]uint64 // per lane
	insts     uint64
}

// cpPageWords is the number of words one page of the memory chain
// table covers: 4096 words = one 32 KiB allocation for one chain (64
// KiB for two), small enough that sparse access stays cheap and large
// enough that the directory of a multi-gigabyte span fits in a few
// megabytes.
const (
	cpPageBits  = 12
	cpPageWords = 1 << cpPageBits
	cpPageMask  = cpPageWords - 1
)

// NewCritPath returns the unscaled (Table 1) analysis.
func NewCritPath() *CritPath {
	return newCritPath(nil, false)
}

// NewScaledCritPath returns the latency-scaled (Table 2) analysis.
func NewScaledCritPath(l *simeng.LatencyModel) *CritPath {
	return newCritPath(l, false)
}

// NewJointCritPath returns one tracker for both analyses: CP, ILP and
// RuntimeSeconds report the unit chain, ScaledCP, ScaledILP and
// ScaledRuntimeSeconds the chain weighted by l.
func NewJointCritPath(l *simeng.LatencyModel) *CritPath {
	return newCritPath(l, true)
}

func newCritPath(l *simeng.LatencyModel, joint bool) *CritPath {
	c := &CritPath{Latencies: l}
	for g := range c.weight {
		w := uint64(1)
		if l != nil && isa.Group(g) != isa.GroupLoad && isa.Group(g) != isa.GroupStore {
			w = uint64(l.Latency(isa.Group(g)))
		}
		c.weight[g] = [2]uint64{w, w}
		if joint {
			c.weight[g][0] = 1
		}
	}
	if joint {
		c.joint = true
		c.reg = make([]uint64, 2*isa.NumRegs)
		c.mem2 = make(map[uint64][2]uint64, 1<<12)
	} else {
		c.reg = make([]uint64, isa.NumRegs)
		c.mem = make(map[uint64]uint64, 1<<12)
	}
	return c
}

// SetDenseRange switches memory-chain tracking for [base, base+size)
// to the two-level page table. Call before the first event; addresses
// outside the range still use the map. At paper-scale problem sizes
// (hundreds of megabytes of arrays) this is the difference between
// pages sized by the touched working set and a multi-gigabyte map.
func (c *CritPath) SetDenseRange(base, size uint64) {
	c.pageBase = base &^ 7
	c.spanWords = (size + 7) / 8
	c.pages = make([][]uint64, (c.spanWords+cpPageWords-1)>>cpPageBits)
}

// slot names the record kept per register and per memory word by its
// number of lanes: [1]uint64 holds one chain's length, [2]uint64 the
// unit chain's then the scaled chain's. The hot path is generic over
// it, so the compiler builds one copy per lane count with the count a
// constant, and a one-chain tracker pays nothing for a second lane.
type slot interface{ [1]uint64 | [2]uint64 }

// laneShift returns log2 of S's lane count: the shift from a register
// or word index to its slot, and the index of lane 1 within the slot.
// For a one-chain slot that is lane 0, so the hot path reads and
// writes the one chain as both lanes, with the same weight in each.
func laneShift[S slot]() uint64 {
	var v S
	return uint64(len(v) - 1)
}

// wildGet returns the lengths recorded at a word outside the dense
// range, lane 0 then lane 1.
func (c *CritPath) wildGet(w uint64) (uint64, uint64) {
	if !c.joint {
		v := c.mem[w]
		return v, v
	}
	v := c.mem2[w]
	return v[0], v[1]
}

// wildSet records the lengths u (lane 0) and s (lane 1) at a word
// outside the dense range.
func (c *CritPath) wildSet(w, u, s uint64) {
	if !c.joint {
		c.mem[w] = s
	} else {
		c.mem2[w] = [2]uint64{u, s}
	}
}

// Events extends dependency chains with a whole batch of retired
// instructions — the isa.BatchSink fast path.
func (c *CritPath) Events(evs []isa.Event) {
	if c.joint {
		for i := range evs {
			step[[2]uint64](c, &evs[i])
		}
		return
	}
	for i := range evs {
		step[[1]uint64](c, &evs[i])
	}
}

// Event extends dependency chains with one retired instruction.
func (c *CritPath) Event(ev *isa.Event) {
	if c.joint {
		step[[2]uint64](c, ev)
	} else {
		step[[1]uint64](c, ev)
	}
}

// step extends the chains with one event: u follows lane 0 and s lane
// 1, which on a one-chain tracker are the same chain. The dense-range
// lookups are written out in each access loop: a helper is too large
// for the compiler to inline, and a call per word is a measurable
// share of the hot path.
func step[S slot](c *CritPath, ev *isa.Event) {
	sh := laneShift[S]()
	c.insts++
	var u, s uint64
	for k := uint8(0); k < ev.NSrcs; k++ {
		r := uint64(ev.Srcs[k]) << sh
		u, s = max(u, c.reg[r]), max(s, c.reg[r|sh])
	}
	if ev.LoadSize != 0 {
		first, last := wordSpan(ev.LoadAddr, ev.LoadSize)
		for w := first; w <= last; w += 8 {
			if i := (w - c.pageBase) / 8; i >= c.spanWords {
				a, b := c.wildGet(w)
				u, s = max(u, a), max(s, b)
			} else if p := c.pages[i>>cpPageBits]; p != nil {
				j := (i & cpPageMask) << sh
				u, s = max(u, p[j]), max(s, p[j|sh])
			}
		}
	}
	if ev.Load2Size != 0 { // second access of a fused load pair
		first, last := wordSpan(ev.Load2Addr, ev.Load2Size)
		for w := first; w <= last; w += 8 {
			if i := (w - c.pageBase) / 8; i >= c.spanWords {
				a, b := c.wildGet(w)
				u, s = max(u, a), max(s, b)
			} else if p := c.pages[i>>cpPageBits]; p != nil {
				j := (i & cpPageMask) << sh
				u, s = max(u, p[j]), max(s, p[j|sh])
			}
		}
	}
	w := &c.weight[ev.Group]
	u, s = u+w[0], s+w[1]

	for k := uint8(0); k < ev.NDsts; k++ {
		r := uint64(ev.Dsts[k]) << sh
		c.reg[r], c.reg[r|sh] = u, s
	}
	if ev.StoreSize != 0 {
		first, last := wordSpan(ev.StoreAddr, ev.StoreSize)
		for w := first; w <= last; w += 8 {
			i := (w - c.pageBase) / 8
			if i >= c.spanWords {
				c.wildSet(w, u, s)
				continue
			}
			p := c.pages[i>>cpPageBits]
			if p == nil {
				p = make([]uint64, cpPageWords<<sh)
				c.pages[i>>cpPageBits] = p
			}
			j := (i & cpPageMask) << sh
			p[j], p[j|sh] = u, s
		}
	}
	c.max[0], c.max[1] = max(c.max[0], u), max(c.max[1], s)
}

// CP returns the length of the critical path observed so far: the
// unit chain's, or the scaled chain's for a NewScaledCritPath tracker.
func (c *CritPath) CP() uint64 { return c.max[0] }

// ScaledCP returns the length of the latency-scaled critical path
// observed so far, or 0 for a tracker of the unit chain alone.
func (c *CritPath) ScaledCP() uint64 {
	if c.Latencies == nil {
		return 0
	}
	return c.max[1]
}

// Instructions returns the number of events observed.
func (c *CritPath) Instructions() uint64 { return c.insts }

// ILP returns the paper's instruction-level-parallelism metric,
// path length divided by critical path, for the chain CP reports.
func (c *CritPath) ILP() float64 { return c.ilp(c.CP()) }

// ScaledILP returns the ILP metric for the chain ScaledCP reports.
func (c *CritPath) ScaledILP() float64 { return c.ilp(c.ScaledCP()) }

func (c *CritPath) ilp(cp uint64) float64 {
	if cp == 0 {
		return 0
	}
	return float64(c.insts) / float64(cp)
}

// RuntimeSeconds returns the ideal run time at the paper's 2 GHz
// clock: one cycle per critical-path step of the chain CP reports.
func (c *CritPath) RuntimeSeconds() float64 { return float64(c.CP()) / ClockHz }

// ScaledRuntimeSeconds returns the ideal run time of the chain
// ScaledCP reports.
func (c *CritPath) ScaledRuntimeSeconds() float64 { return float64(c.ScaledCP()) / ClockHz }

// TrackerStats describes the memory footprint of the dependency
// tracker — the quantity that decides whether a paper-scale run fits
// in RAM (see SetDenseRange).
type TrackerStats struct {
	// MapEntries is the number of memory words tracked in the sparse
	// fallback map (wild addresses outside the dense range).
	MapEntries int
	// DenseWords is the number of 8-byte words addressable through
	// the two-level page table (0 when SetDenseRange was never
	// called). Pages materialize lazily, so resident memory is
	// bounded by the touched working set, not by this span.
	DenseWords int
}

// TrackerStats reports the tracker's current memory footprint.
func (c *CritPath) TrackerStats() TrackerStats {
	return TrackerStats{MapEntries: len(c.mem) + len(c.mem2), DenseWords: int(c.spanWords)}
}

// wordSpan returns the first and last 8-byte-aligned words covered by
// an access.
func wordSpan(addr uint64, size uint8) (first, last uint64) {
	return addr &^ 7, (addr + uint64(size) - 1) &^ 7
}
