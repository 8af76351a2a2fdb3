package core

import "isacmp/internal/isa"

// DepDistance measures the distance, in retired instructions, from
// each event back to its RAW producers — a diagnostic for the
// dependency locality the paper's Figure 2 discussion reasons about
// ("local dependent instructions are more distantly spread for
// RISC-V"). Note that window ILP is bounded by the *depth* of chains
// inside the window, not the raw count of short edges, so this
// histogram complements rather than replaces the windowed
// critical-path analysis.
//
// The producers are the ones the windowed analyses resolve (see
// resolver), with a reach of 2^16 events: each event records one edge
// per distinct event fewer than 2^16 events back that last wrote one
// of its register sources or one of the 8-byte words its loads read.
// A producer further back records nothing, like a value never
// written. Distances are bucketed in powers of two.
type DepDistance struct {
	res  resolver
	dist []uint32 // the current event's producer distances

	buckets [depReachBits]uint64 // bucket i: distance in [2^i, 2^(i+1))
	count   uint64
	sum     uint64
}

// depReachBits is log2 of DepDistance's reach.
const depReachBits = 16

// NewDepDistance returns an empty measurement.
func NewDepDistance() *DepDistance {
	return &DepDistance{res: newResolver(1 << depReachBits)}
}

// Events observes a whole batch, one event at a time.
func (d *DepDistance) Events(evs []isa.Event) {
	for i := range evs {
		d.Event(&evs[i])
	}
}

// Event observes one retired instruction.
func (d *DepDistance) Event(ev *isa.Event) {
	d.dist = d.res.resolve(ev, d.dist[:0])
	for _, x := range d.dist {
		d.record(uint64(x))
	}
}

func (d *DepDistance) record(dist uint64) {
	d.count++
	d.sum += dist
	b := 0
	for dist > 1 && b < len(d.buckets)-1 {
		dist >>= 1
		b++
	}
	d.buckets[b]++
}

// Count returns the number of dependency edges observed.
func (d *DepDistance) Count() uint64 { return d.count }

// Mean returns the mean producer→consumer distance.
func (d *DepDistance) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// ShortFraction returns the fraction of dependency edges with distance
// strictly below n instructions — the "local dependency" mass that
// limits ILP inside a reorder window of size n.
func (d *DepDistance) ShortFraction(n uint64) float64 {
	if d.count == 0 {
		return 0
	}
	var short uint64
	lo := uint64(1)
	for b := 0; b < len(d.buckets); b++ {
		hi := lo * 2
		if hi <= n {
			short += d.buckets[b]
		} else if lo < n {
			// Partial bucket: approximate uniformly.
			frac := float64(n-lo) / float64(hi-lo)
			short += uint64(float64(d.buckets[b]) * frac)
		}
		lo = hi
	}
	return float64(short) / float64(d.count)
}

// Buckets returns the power-of-two histogram: Buckets()[i] counts
// distances in [2^i, 2^(i+1)).
func (d *DepDistance) Buckets() []uint64 {
	out := make([]uint64, len(d.buckets))
	copy(out, d.buckets[:])
	return out
}
