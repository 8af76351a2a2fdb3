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
// where a one-chain tracker keeps 8 bytes. MergeWindowed adds the
// Figure 2 analysis to the same walk, in a 24-byte slot that also
// keeps the word's last writer.
type CritPath struct {
	// Latencies is the model the scaled chain is weighted by, nil for
	// a tracker of the unit chain alone. The constructors copy its
	// weights into the tracker.
	Latencies *simeng.LatencyModel

	// words is the number of words in each register's and memory
	// word's slot: 1, 2 on a tracker of both chains, 3 on a tracker
	// merged with windowed CP; see slot.
	words uint64
	// weight is each group's weight, per lane.
	weight [isa.NumGroups][2]uint64
	// win is the windowed analyzer a merged tracker resolves the
	// producers of, nil otherwise.
	win *WindowedCritPath

	reg []uint64 // isa.NumRegs slots
	// mem is the map fallback for words outside the dense range, keyed
	// by word address. Whatever the slot's size, it holds lane 0, lane
	// 1 (lane 0 again on a one-chain tracker) and the last writer (0
	// unless merged).
	mem map[uint64][3]uint64
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
// KiB for two, 96 KiB merged), small enough that sparse access stays
// cheap and large enough that the directory of a multi-gigabyte span
// fits in a few megabytes.
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
	c := &CritPath{Latencies: l, words: 1, mem: make(map[uint64][3]uint64)}
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
		c.words = 2
	}
	c.reg = make([]uint64, c.words*isa.NumRegs)
	return c
}

// MergeWindowed makes the tracker's walk resolve w's events as well,
// so that one walk serves Tables 1 and 2 and Figure 2: each register
// and memory word also keeps the event that last wrote it, and each
// event hands w the distances back to its producers, deduplicated and
// within w's largest window, as w's own resolver would. Attach the
// tracker in place of w; w's Results reads the windows as before.
// Call before the first event.
func (c *CritPath) MergeWindowed(w *WindowedCritPath) {
	c.win, c.words = w, 3
	c.reg = make([]uint64, c.words*isa.NumRegs)
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
// number of words: [1]uint64 holds one chain's length, [2]uint64 the
// unit chain's then the scaled chain's, and [3]uint64 those two then
// the event that last wrote it, on a tracker merged with windowed CP.
// The hot path is generic over it, so the compiler builds one copy per
// shape with the word count a constant, and a tracker pays nothing for
// words it does not keep.
type slot interface {
	[1]uint64 | [2]uint64 | [3]uint64
}

// slotWords returns S's word count: the stride from one register's or
// memory word's slot to the next.
func slotWords[S slot]() uint64 {
	var v S
	return uint64(len(v))
}

// Events extends dependency chains with a whole batch of retired
// instructions — the isa.BatchSink fast path.
func (c *CritPath) Events(evs []isa.Event) {
	switch c.words {
	case 3:
		for i := range evs {
			step[[3]uint64](c, &evs[i])
		}
	case 2:
		for i := range evs {
			step[[2]uint64](c, &evs[i])
		}
	default:
		for i := range evs {
			step[[1]uint64](c, &evs[i])
		}
	}
}

// Event extends dependency chains with one retired instruction.
func (c *CritPath) Event(ev *isa.Event) {
	switch c.words {
	case 3:
		step[[3]uint64](c, ev)
	case 2:
		step[[2]uint64](c, ev)
	default:
		step[[1]uint64](c, ev)
	}
}

// step extends the chains with one event: u follows lane 0 and s lane
// 1, which on a one-chain tracker are the same chain. On a merged
// tracker it also numbers the event k as the windowed resolver does,
// appends the distances back to the last writers of its sources and
// load words to the windowed analyzer's run, and records k as the last
// writer of its destinations. The dense-range lookups are written out
// in each access loop: a helper is too large for the compiler to
// inline, and a call per word is a measurable share of the hot path.
func step[S slot](c *CritPath, ev *isa.Event) {
	n := slotWords[S]()
	l1 := min(n-1, 1) // lane 1's word: lane 0's in a one-chain slot
	const wr = 2      // the last writer's word in a merged slot
	merged := n == 3
	c.insts++
	var u, s uint64
	var k, reach uint64
	var dist []uint32 // dist[start:] lists this event's producers
	var start int
	if merged {
		reach = c.win.maxSize
		k, dist = c.win.pos+reach, c.win.run.dist
		start = len(dist)
	}
	for i := uint8(0); i < ev.NSrcs; i++ {
		r := uint64(ev.Srcs[i]) * n
		u, s = max(u, c.reg[r]), max(s, c.reg[r+l1])
		if merged {
			dist = producer(dist, start, k-c.reg[r+wr], reach)
		}
	}
	if ev.LoadSize != 0 {
		first, last := wordSpan(ev.LoadAddr, ev.LoadSize)
		for w := first; w <= last; w += 8 {
			if i := (w - c.pageBase) / 8; i >= c.spanWords {
				v := c.mem[w]
				u, s = max(u, v[0]), max(s, v[1])
				if merged {
					dist = producer(dist, start, k-v[wr], reach)
				}
			} else if p := c.pages[i>>cpPageBits]; p != nil {
				j := (i & cpPageMask) * n
				u, s = max(u, p[j]), max(s, p[j+l1])
				if merged {
					dist = producer(dist, start, k-p[j+wr], reach)
				}
			}
		}
	}
	if ev.Load2Size != 0 { // second access of a fused load pair
		first, last := wordSpan(ev.Load2Addr, ev.Load2Size)
		for w := first; w <= last; w += 8 {
			if i := (w - c.pageBase) / 8; i >= c.spanWords {
				v := c.mem[w]
				u, s = max(u, v[0]), max(s, v[1])
				if merged {
					dist = producer(dist, start, k-v[wr], reach)
				}
			} else if p := c.pages[i>>cpPageBits]; p != nil {
				j := (i & cpPageMask) * n
				u, s = max(u, p[j]), max(s, p[j+l1])
				if merged {
					dist = producer(dist, start, k-p[j+wr], reach)
				}
			}
		}
	}
	w := &c.weight[ev.Group]
	u, s = u+w[0], s+w[1]

	for i := uint8(0); i < ev.NDsts; i++ {
		r := uint64(ev.Dsts[i]) * n
		c.reg[r], c.reg[r+l1] = u, s
		if merged {
			c.reg[r+wr] = k
		}
	}
	if ev.StoreSize != 0 {
		first, last := wordSpan(ev.StoreAddr, ev.StoreSize)
		for w := first; w <= last; w += 8 {
			i := (w - c.pageBase) / 8
			if i >= c.spanWords {
				c.mem[w] = [3]uint64{u, s, k}
				continue
			}
			p := c.pages[i>>cpPageBits]
			if p == nil {
				p = make([]uint64, cpPageWords*n)
				c.pages[i>>cpPageBits] = p
			}
			j := (i & cpPageMask) * n
			p[j], p[j+l1] = u, s
			if merged {
				p[j+wr] = k
			}
		}
	}
	c.max[0], c.max[1] = max(c.max[0], u), max(c.max[1], s)
	if merged && c.win.resolved(dist) {
		c.win.carry()
	}
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
	return TrackerStats{MapEntries: len(c.mem), DenseWords: int(c.spanWords)}
}

// wordSpan returns the first and last 8-byte-aligned words covered by
// an access.
func wordSpan(addr uint64, size uint8) (first, last uint64) {
	return addr &^ 7, (addr + uint64(size) - 1) &^ 7
}
