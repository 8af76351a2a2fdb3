package core

import "math/bits"

// laneKernelFold folds the events [k, k+n) of a prodRun into the lanes
// of a laneKernel: off holds the run's offsets from event k on, dist
// its producer distances, and ring, state, groups and mask are the
// kernel's (see laneKernel). It is nil where the CPU cannot run the
// kernel, and windowFold then folds with laneFold instead.
var laneKernelFold func(ring, state, off, dist []uint32, groups, mask, k, n uint64)

// The fields of a laneKernel's per-lane state, each a row of 8 uint32
// values per group of 8 lanes, in this order.
const (
	kBase   = iota // the lane's running peak when its window started
	kPeak          // the lane's running peak
	kEnd           // events to fold until the lane's next window end
	kStart         // events to fold until the lane's next window start
	kPeriod        // events between two of the lane's windows
	kSum           // critical paths of the windows ended in this call
	kFields
)

// kernelChunk caps the events one kernel call folds: the goroutine
// cannot be preempted inside the call, which this keeps to about 0.1
// ms at the paper's sizes, and the per-call sums stay far below 2^32.
const kernelChunk = 1 << 14

// laneKernel is the lane fold that laneKernelFold runs on 8 lanes at
// a time. It gives every window the critical path laneFold gives it,
// from the same lanes, but stores each lane's value of event t as
// base + depth, where base is the lane's running peak when its current
// window started. A producer older than the window holds at most base,
// so an event's value is max(base, its producers' values) + 1 with no
// per-producer mask, and a window's critical path is peak - base at
// its end. Instead of a calendar, every lane counts down to its next
// window end, where it adds peak - base to its sum, and to its next
// window start, where base becomes peak; both recur every count*stride
// events.
//
// Lanes are padded to a multiple of 8; a padding lane starts and ends a
// window at every event and belongs to no size. Values grow by at most
// 1 per folded event, so fold renormalises (see renormalise) before any
// peak could reach 2^31.
type laneKernel struct {
	groups uint64     // groups of 8 lanes
	lanes  uint64     // lanes the sizes own; the rest are padding
	mask   uint64     // rows - 1
	ring   []uint32   // rows × 8*groups values
	state  []uint32   // kFields rows of 8 values per group
	size   []laneSize // one per window size; next and link are unused
	top    uint64     // no lane's peak exceeds it
}

// newLaneKernel returns the kernel fold of sizes at strides, started
// at event 0, or nil when there are no lanes or its ring, padded to
// groups of 8 lanes, would exceed laneBudget.
func newLaneKernel(sizes []int, strides []uint64, maxSize uint64) *laneKernel {
	const maxRowGroups = laneBudget / 32 // 8 lanes of 4 bytes
	if maxSize >= maxRowGroups {
		return nil
	}
	rows := uint64(1) << bits.Len64(maxSize)
	f := &laneKernel{mask: rows - 1, size: make([]laneSize, len(sizes))}
	for i, s := range sizes {
		if s <= 0 {
			continue
		}
		ls := &f.size[i]
		ls.size, ls.stride, ls.first = uint64(s), strides[i], f.lanes
		ls.count = (ls.size + ls.stride - 1) / ls.stride
		f.lanes += ls.count
	}
	f.groups = (f.lanes + 7) / 8
	if f.groups == 0 || f.groups > maxRowGroups/rows {
		return nil
	}
	f.ring = make([]uint32, rows*8*f.groups)
	f.state = make([]uint32, kFields*8*f.groups)
	for l := f.lanes; l < 8*f.groups; l++ {
		*f.at(kEnd, l), *f.at(kStart, l), *f.at(kPeriod, l) = 1, 1, 1
	}
	for i := range f.size {
		ls := &f.size[i]
		period := ls.count * ls.stride
		for m := uint64(0); m < ls.count; m++ {
			l, s := ls.first+m, m*ls.stride
			*f.at(kPeriod, l) = uint32(period)
			*f.at(kEnd, l) = uint32(s + ls.size)
			// The window starting at 0 needs no start: base and peak
			// are both 0.
			if *f.at(kStart, l) = uint32(s); s == 0 {
				*f.at(kStart, l) = uint32(period)
			}
		}
	}
	return f
}

// at returns field of lane l's state.
func (f *laneKernel) at(field int, l uint64) *uint32 {
	return &f.state[(l/8*kFields+uint64(field))*8+l%8]
}

// fold folds the events [from, to) of run, which follow the last event
// folded, and adds each window that ends by to to acc.
func (f *laneKernel) fold(run *prodRun, from, to uint64, acc []windowAccum) {
	for from < to {
		n := min(to-from, kernelChunk)
		if f.top+n >= 1<<31 {
			f.renormalise()
		}
		// The windows ending in the next n events, from the countdowns.
		for i := range f.size {
			ls := &f.size[i]
			for l := ls.first; l < ls.first+ls.count; l++ {
				if e := uint64(*f.at(kEnd, l)); e <= n {
					w := 1 + (n-e)/(ls.count*ls.stride)
					acc[i].windows += w
					acc[i].sumLen += w * ls.size
				}
			}
		}
		laneKernelFold(f.ring, f.state, run.off[from-run.base:], run.dist, f.groups, f.mask, from, n)
		for i := range f.size {
			ls := &f.size[i]
			for l := ls.first; l < ls.first+ls.count; l++ {
				acc[i].sumCP += uint64(*f.at(kSum, l))
			}
		}
		for g := uint64(0); g < f.groups; g++ {
			clear(f.state[(g*kFields+kSum)*8:][:8])
		}
		f.top += n
		from += n
	}
}

// renormalise subtracts each lane's base from its base, its peak and
// its column of the ring, where a value below the base becomes 0. That
// keeps every window's critical path: the kernel reads a value only
// through max(base, value), so one below the base reads as the base
// either way.
func (f *laneKernel) renormalise() {
	n := 8 * f.groups
	f.top = 0
	for l := uint64(0); l < n; l++ {
		b := *f.at(kBase, l)
		for i := l; i < uint64(len(f.ring)); i += n {
			f.ring[i] -= min(f.ring[i], b)
		}
		*f.at(kBase, l) = 0
		*f.at(kPeak, l) -= b
		f.top = max(f.top, uint64(*f.at(kPeak, l)))
	}
}
