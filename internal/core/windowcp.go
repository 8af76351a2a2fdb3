package core

import (
	"fmt"
	"math/bits"

	"isacmp/internal/isa"
)

// WindowedCritPath slides fixed-size windows over the dynamic
// instruction stream and computes the critical path within each
// window, advancing by half the window size between evaluations
// (paper section 6: "for a window size of four, we first look at the
// CP of the first four instructions, then instructions 2-6, then
// 4-8"). The window models a reorder buffer: only dependencies between
// instructions simultaneously in flight constrain issue. Instruction
// latency is not accounted (section 6.1).
//
// Streams whose length is not a multiple of the stride leave a tail of
// instructions no complete window reaches; Results evaluates one final
// window snapped to the end of the stream over them (shorter than Size
// when the whole stream is shorter), so every retired instruction
// contributes to the Figure 2 series. WindowResult accounts partial
// windows by their true length when averaging ILP.
//
// Several window sizes are evaluated simultaneously in one pass over
// the stream. Each event's RAW producers are resolved once, on
// arrival, by its resolver or by the walk of a CritPath merged with it
// (see CritPath.MergeWindowed), and a windowFold started at position 0
// folds each chunk of resolved events into every window open at them:
// by lanes when their ring fits laneBudget, with the lane kernel where
// the CPU runs it (see laneKernel) and with laneFold elsewhere,
// otherwise with one pass of prodRun.cp over each window once it
// completes. In every case there is no hashing and no state to reset
// between windows, and the folds give every window the same critical
// path (see laneFold).
type WindowedCritPath struct {
	windowFold
	pos     uint64 // total events seen
	folded  uint64 // events folded into results; the run holds the rest
	results []windowAccum

	res resolver // idle while a merged CritPath resolves the events
	run prodRun  // events [run.base, pos): the last maxSize to 2*maxSize
}

// resolver turns each event's register sources and load words (both
// accesses of a fused load pair) into distances back to the events
// that last wrote them: the event's RAW producers. A producer maxDist
// or more events back is out of reach (for the windowed analyses, it
// shares no window with its reader), so its edge is dropped; the rest
// are deduplicated. DepDistance uses it too, with a reach of 2^16.
//
// Events are numbered from maxDist on, so the zero "never written"
// writer is always out of reach, like any writer too old to share a
// window with its reader.
type resolver struct {
	maxDist uint64
	n       uint64              // number of the last event resolved
	reg     [isa.NumRegs]uint64 // last writer of each register
	mem     wordTable
}

func newResolver(maxDist uint64) resolver {
	return resolver{maxDist: maxDist, n: maxDist - 1, mem: newWordTable()}
}

// resolve appends the next event's producer distances to dist and
// records the event as the last writer of its destinations.
func (r *resolver) resolve(ev *isa.Event, dist []uint32) []uint32 {
	k, start := r.n+1, len(dist)
	for i := uint8(0); i < ev.NSrcs; i++ {
		dist = producer(dist, start, k-r.reg[ev.Srcs[i]], r.maxDist)
	}
	if ev.LoadSize != 0 {
		first, last := wordSpan(ev.LoadAddr, ev.LoadSize)
		for a := first; a <= last; a += 8 {
			dist = producer(dist, start, k-r.mem.get(a), r.maxDist)
		}
	}
	if ev.Load2Size != 0 { // second access of a fused load pair
		first, last := wordSpan(ev.Load2Addr, ev.Load2Size)
		for a := first; a <= last; a += 8 {
			dist = producer(dist, start, k-r.mem.get(a), r.maxDist)
		}
	}
	r.n = k
	for i := uint8(0); i < ev.NDsts; i++ {
		r.reg[ev.Dsts[i]] = k
	}
	if ev.StoreSize != 0 {
		// Writers before oldest are out of reach of every later event.
		oldest := k + 2 - r.maxDist
		first, last := wordSpan(ev.StoreAddr, ev.StoreSize)
		for a := first; a <= last; a += 8 {
			r.mem.set(a, k, oldest)
		}
	}
	return dist
}

// producer appends distance d to the list dist[start:] unless it is
// out of reach, reach or more events back, or already listed.
func producer(dist []uint32, start int, d, reach uint64) []uint32 {
	if d >= reach {
		return dist
	}
	for _, x := range dist[start:] {
		if x == uint32(d) {
			return dist
		}
	}
	return append(dist, uint32(d))
}

// wordTable maps 8-byte-aligned words to their last writer. It is an
// open-addressing table that never deletes: a writer too old to be
// anyone's producer is dead, and each rebuild drops the dead entries.
// The table is therefore sized by the words stored within the largest
// window, not by the data footprint, and a rebuild that does not grow
// it reuses the table and a retained spare, so the steady state
// allocates nothing.
type wordTable struct {
	slots []wordSlot
	spare []wordSlot // holds the live entries during a rebuild
	shift uint8      // 64 - log2(len(slots)): the hash keeps the top bits
	used  int
}

// wordSlot holds word|1 as its key, so 0 marks an empty slot (whose
// writer, 0, reads as "never written") and word 0 stays storable.
type wordSlot struct{ key, writer uint64 }

func newWordTable() wordTable {
	const bits = 10
	return wordTable{slots: make([]wordSlot, 1<<bits), shift: 64 - bits}
}

// find returns word's slot, or the empty slot that ends its probe.
func (t *wordTable) find(word uint64) *wordSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (word >> 3) * 0x9e3779b97f4a7c15 >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == word|1 || s.key == 0 {
			return s
		}
	}
}

func (t *wordTable) get(word uint64) uint64 { return t.find(word).writer }

// set records writer at word. Writers before oldest are dead.
func (t *wordTable) set(word, writer, oldest uint64) {
	s := t.find(word)
	if s.key == 0 {
		if t.used >= len(t.slots)/2 {
			t.rebuild(oldest)
			s = t.find(word)
		}
		s.key = word | 1
		t.used++
	}
	s.writer = writer
}

// rebuild re-inserts the live entries, doubling the table when they
// fill a quarter of it; at most half is ever in use, so probes stay
// short and the amortised cost per insert is constant.
func (t *wordTable) rebuild(oldest uint64) {
	t.spare = t.spare[:0]
	for _, s := range t.slots {
		if s.key != 0 && s.writer >= oldest {
			t.spare = append(t.spare, s)
		}
	}
	if len(t.spare) >= len(t.slots)/4 {
		t.slots, t.shift = make([]wordSlot, 2*len(t.slots)), t.shift-1
	} else {
		clear(t.slots)
	}
	for _, s := range t.spare {
		*t.find(s.key &^ 1) = s
	}
	t.used = len(t.spare)
}

// prodRun holds the resolved events [base, base+len(off)-1): event
// base+i depends on the events base+i-d for each d in
// dist[off[i]:off[i+1]].
type prodRun struct {
	base uint64
	off  []uint32
	dist []uint32
}

// newProdRun returns an empty run with room for n events.
func newProdRun(n uint64) *prodRun {
	return &prodRun{off: make([]uint32, 1, n+1), dist: make([]uint32, 0, 2*n)}
}

func (p *prodRun) end() uint64 { return p.base + uint64(len(p.off)-1) }

// push appends the next event to the run. dist is the run's producer
// list with that event's producer distances appended.
func (p *prodRun) push(dist []uint32) {
	p.dist = dist
	p.off = append(p.off, uint32(len(dist)))
}

// carry drops all but the last n events of the run.
func (p *prodRun) carry(n uint64) {
	from := uint64(len(p.off)-1) - n
	o := p.off[from]
	p.base += from
	p.dist = append(p.dist[:0], p.dist[o:]...)
	p.off = append(p.off[:0], p.off[from:]...)
	for i := range p.off {
		p.off[i] -= o
	}
}

// cp returns the critical path of the events [lo, hi), which must lie
// in the run, using dp (at least hi-lo long) as scratch: each event's
// depth is one more than the deepest of its producers at or after lo.
// This is exact: a producer is the last writer of its value before
// the reader, so when it precedes lo the window holds no writer of
// that value at all, just as a window evaluated from empty state
// would find. laneFold and laneKernel apply the same rule lane by
// lane, so a window gets the same critical path whichever fold
// computes it.
func (p *prodRun) cp(lo, hi uint64, dp []uint32) uint64 {
	off, dist := p.off[lo-p.base:hi-p.base+1], p.dist
	dp = dp[:hi-lo]
	var longest uint32
	for j := range dp {
		var in uint32
		for _, d := range dist[off[j]:off[j+1]] {
			if int(d) <= j {
				in = max(in, dp[j-int(d)])
			}
		}
		dp[j] = in + 1
		longest = max(longest, in+1)
	}
	return uint64(longest)
}

// laneBudget caps the lane folds' ring in bytes. The ring grows with
// size²/stride: the paper's sizes need 112 KiB at stride W/2 (128 KiB
// in the kernel's groups of 8 lanes) and about 30 MiB at stride 1.
// Sizes and a stride whose ring would exceed the cap keep the
// per-window fold, which holds no ring.
const laneBudget = 1 << 20

// laneFold folds every window of every size in one pass per event.
// Each size owns ceil(size/stride) lanes, and from event 0 on the
// size's windows take its lanes in turn: window m+count starts
// count*stride >= size events after window m, so a lane holds one
// window at a time. A ring holds each lane's depth of each event in
// rows, a power of two more of them than the largest window: row
// t&mask holds event t, because every producer the resolver keeps lies
// less than the largest window back.
//
// Event k's depth in a lane is one more than the deepest of its
// producers in that lane, where a producer before the lane's window
// start reads as 0: the prodRun.cp rule, so each lane's running peak
// at its window's end is that window's critical path. A lane is handed
// its next window as soon as its window ends; until that window starts
// every producer is masked and the lane's depths stay 1, which no
// window's critical path is below, so the gap cannot change a peak.
type laneFold struct {
	n    uint64     // lanes
	mask uint64     // rows - 1
	ring []uint32   // rows × n depths
	lo   []uint64   // each lane's window start
	peak []uint32   // each lane's deepest depth since its window was handed over
	size []laneSize // one per window size, in the caller's order
	// cal[e&mask] heads the list, linked through laneSize.link, of the
	// sizes whose next window ends at event position e, or is -1. A
	// size's first window ends by maxSize, and each later one a stride
	// (at most maxSize) after the last, so the pending ends span at
	// most maxSize positions, fewer than the calendar's slots (one per
	// ring row): a slot only ever lists sizes that end at the same
	// position.
	cal []int32
}

// laneSize is one window size's share of a laneFold; a size that is
// not positive has no lanes and is never due.
type laneSize struct {
	size, stride uint64
	first, count uint64 // its lanes are [first, first+count)
	next         uint64 // the lane, from first, of the window ending next
	link         int32  // next size in the same calendar slot, or -1
}

// newLaneFold returns the lane fold of sizes at strides, started at
// event 0, or nil when its ring would exceed laneBudget.
func newLaneFold(sizes []int, strides []uint64, maxSize uint64) *laneFold {
	const maxDepths = laneBudget / 4
	if maxSize >= maxDepths {
		return nil
	}
	rows := uint64(1) << bits.Len64(maxSize)
	f := &laneFold{mask: rows - 1, size: make([]laneSize, len(sizes))}
	for i, s := range sizes {
		if s <= 0 {
			continue
		}
		ls := &f.size[i]
		ls.size, ls.stride, ls.first = uint64(s), strides[i], f.n
		ls.count = (ls.size + ls.stride - 1) / ls.stride
		if f.n += ls.count; f.n > maxDepths/rows {
			return nil
		}
		for m := uint64(0); m < ls.count; m++ {
			f.lo = append(f.lo, m*ls.stride)
		}
	}
	f.cal = make([]int32, rows)
	for e := range f.cal {
		f.cal[e] = -1
	}
	for i := range f.size {
		if ls := &f.size[i]; ls.count > 0 {
			ls.link, f.cal[ls.size] = f.cal[ls.size], int32(i)
		}
	}
	f.ring = make([]uint32, rows*f.n)
	f.peak = make([]uint32, f.n)
	return f
}

// extend computes event k's depth in every lane from its producer
// distances ds and raises the lanes' peaks. Each producer count has its
// own loop, which loads every producer row and selects 0 for masked
// lanes by comparison, so the loops carry no branch.
func (f *laneFold) extend(k uint64, ds []uint32) {
	n := f.n
	cur := f.ring[(k&f.mask)*n:][:n]
	lo, peak := f.lo[:len(cur)], f.peak[:len(cur)]
	row := func(t uint64) []uint32 { return f.ring[(t&f.mask)*n:][:len(cur)] }
	switch len(ds) {
	case 0:
		for l := range cur {
			cur[l] = 1
			peak[l] = max(peak[l], 1)
		}
	case 1:
		ta := k - uint64(ds[0])
		a := row(ta)
		for l := range cur {
			x := a[l]
			if ta < lo[l] {
				x = 0
			}
			x++
			cur[l] = x
			peak[l] = max(peak[l], x)
		}
	case 2:
		ta, tb := k-uint64(ds[0]), k-uint64(ds[1])
		a, b := row(ta), row(tb)
		for l := range cur {
			x, y := a[l], b[l]
			if ta < lo[l] {
				x = 0
			}
			if tb < lo[l] {
				y = 0
			}
			x = max(x, y) + 1
			cur[l] = x
			peak[l] = max(peak[l], x)
		}
	default:
		clear(cur)
		for _, d := range ds {
			t := k - uint64(d)
			a := row(t)
			for l := range cur {
				x := a[l]
				if t < lo[l] {
					x = 0
				}
				cur[l] = max(cur[l], x)
			}
		}
		for l := range cur {
			x := cur[l] + 1
			cur[l] = x
			peak[l] = max(peak[l], x)
		}
	}
}

// end adds the peaks of the windows ending at event position pos to
// acc and hands each of their lanes its next window.
func (f *laneFold) end(pos uint64, acc []windowAccum) {
	slot := pos & f.mask
	i := f.cal[slot]
	f.cal[slot] = -1
	for i >= 0 {
		ls := &f.size[i]
		l := ls.first + ls.next
		acc[i].sumCP += uint64(f.peak[l])
		acc[i].sumLen += ls.size
		acc[i].windows++
		f.peak[l] = 0
		f.lo[l] += ls.count * ls.stride
		if ls.next++; ls.next == ls.count {
			ls.next = 0
		}
		next := ls.link
		s := (pos + ls.stride) & f.mask
		ls.link, f.cal[s] = f.cal[s], i
		i = next
	}
}

// fold folds the events [from, to) of run, which follow the last event
// folded, and adds each window that ends by to to acc.
func (f *laneFold) fold(run *prodRun, from, to uint64, acc []windowAccum) {
	off, dist := run.off[from-run.base:to-run.base+1], run.dist
	for k := from; k < to; k++ {
		f.extend(k, dist[off[0]:off[1]])
		off = off[1:]
		if f.cal[(k+1)&f.mask] >= 0 {
			f.end(k+1, acc)
		}
	}
}

// windowFold is WindowedCritPath's fold over its prodRun: started at
// position 0 and driven one chunk of resolved events at a time. It
// folds by lanes when their ring fits laneBudget: with the lane kernel
// where the CPU runs it and its padded ring fits, otherwise with
// laneFold, which is also the kernel's reference. Sizes and strides
// whose ring fits neither fold with prodRun.cp once per window, at the
// window ends next holds.
type windowFold struct {
	sizes   []int
	strides []uint64
	maxSize uint64
	// kernel folds the windows when it is set, else lanes does; when
	// both are nil, the per-window fold does.
	kernel *laneKernel
	lanes  *laneFold
	// next[i] is the position at which the next window of sizes[i]
	// ends, so the due-check is a compare, not a modulo; due is the
	// smallest.
	next []uint64
	due  uint64
	dp   []uint32 // depth scratch for prodRun.cp
}

// newWindowFold returns the fold of sizes at strides, started at
// position 0. kernel allows the lane kernel, which laneKernelFold must
// then provide.
func newWindowFold(sizes []int, strides []uint64, maxSize uint64, kernel bool) windowFold {
	f := windowFold{sizes: sizes, strides: strides, maxSize: maxSize, dp: make([]uint32, maxSize)}
	if kernel {
		if f.kernel = newLaneKernel(sizes, strides, maxSize); f.kernel != nil {
			return f
		}
	}
	if f.lanes = newLaneFold(sizes, strides, maxSize); f.lanes != nil {
		return f
	}
	f.next, f.due = make([]uint64, len(sizes)), ^uint64(0)
	for i, s := range sizes {
		f.next[i] = ^uint64(0) // a size that is not positive is never due
		if s > 0 {
			f.next[i] = uint64(s)
		}
		f.due = min(f.due, f.next[i])
	}
	return f
}

// fold folds the events [from, to) of run, which follow the last event
// folded, and adds each window that ends by to to acc.
func (f *windowFold) fold(run *prodRun, from, to uint64, acc []windowAccum) {
	switch {
	case f.kernel != nil:
		f.kernel.fold(run, from, to, acc)
	case f.lanes != nil:
		f.lanes.fold(run, from, to, acc)
	default:
		for f.due <= to {
			f.windows(run, f.due, acc)
		}
	}
}

// windows adds every window that ends at pos, which must be due, to
// acc, each folded with prodRun.cp, and schedules each size's next.
func (f *windowFold) windows(run *prodRun, pos uint64, acc []windowAccum) {
	f.due = ^uint64(0)
	for i, next := range f.next {
		if pos == next {
			size := uint64(f.sizes[i])
			acc[i].add(windowAccum{sumCP: run.cp(pos-size, pos, f.dp), sumLen: size, windows: 1})
			next += f.strides[i]
			f.next[i] = next
		}
		f.due = min(f.due, next)
	}
}

// finish adds each size's tail window over a stream of n events to
// its sums in acc and returns the aggregates. The tail window lies in
// the last maxSize events, which run must hold.
func (f *windowFold) finish(run *prodRun, n uint64, acc []windowAccum) []WindowResult {
	out := make([]WindowResult, len(f.sizes))
	for i, size := range f.sizes {
		a := acc[i]
		if size > 0 {
			if lo, hi, ok := tailSpan(n, uint64(size), f.strides[i]); ok {
				a.add(windowAccum{sumCP: run.cp(lo, hi, f.dp), sumLen: hi - lo, windows: 1})
			}
		}
		out[i] = WindowResult{Size: size, Windows: a.windows}
		if a.windows > 0 {
			out[i].MeanCP = float64(a.sumCP) / float64(a.windows)
			if out[i].MeanCP > 0 {
				out[i].MeanILP = float64(a.sumLen) / float64(a.windows) / out[i].MeanCP
			}
		}
	}
	return out
}

type windowAccum struct {
	sumCP   uint64
	sumLen  uint64
	windows uint64
}

// add merges another accumulator.
func (a *windowAccum) add(b windowAccum) {
	a.sumCP += b.sumCP
	a.sumLen += b.sumLen
	a.windows += b.windows
}

// WindowResult reports the aggregate for one window size.
type WindowResult struct {
	// Size is the window size in instructions.
	Size int
	// Windows is the number of windows evaluated, including the final
	// partial window when the stream length leaves one.
	Windows uint64
	// MeanCP is the mean critical path length per window.
	MeanCP float64
	// MeanILP is mean window length / MeanCP, the paper's Figure 2
	// metric. With no partial window the mean length is exactly Size.
	MeanILP float64
}

// WindowAnalyzer is a windowed-CP sink with its results, which
// WindowedCritPath is.
type WindowAnalyzer interface {
	isa.Sink
	Results() []WindowResult
}

// PaperWindowSizes are the window sizes evaluated in the paper.
func PaperWindowSizes() []int { return []int{4, 16, 64, 200, 500, 1000, 2000} }

// ValidateWindows rejects window settings the windowed analyzers
// would otherwise run silently: a negative stride, which would clamp
// to disjoint windows, and a size that is not positive, which would
// give an empty row.
func ValidateWindows(sizes []int, stride int) error {
	if stride < 0 {
		return fmt.Errorf("window stride %d is negative (-stride 0 selects the paper's size/2)", stride)
	}
	for _, s := range sizes {
		if s <= 0 {
			return fmt.Errorf("window size %d is not positive", s)
		}
	}
	return nil
}

// windowStrides resolves the per-size stride: an explicit stride is
// clamped to [1, size]; stride 0 selects the paper's size/2.
func windowStrides(sizes []int, stride int) []uint64 {
	out := make([]uint64, len(sizes))
	for i, s := range sizes {
		st := uint64(stride)
		if st == 0 {
			st = uint64(s / 2)
		}
		if st == 0 {
			st = 1
		}
		if s > 0 && st > uint64(s) {
			st = uint64(s)
		}
		out[i] = st
	}
	return out
}

// NewWindowedCritPath evaluates the given window sizes (ascending
// order not required) with the paper's 50% overlap.
func NewWindowedCritPath(sizes []int) *WindowedCritPath {
	return NewWindowedCritPathStride(sizes, 0)
}

// NewWindowedCritPathStride evaluates the given window sizes with an
// explicit stride between windows. stride 0 selects the paper's
// size/2; the paper notes it models commit width or execution-unit
// limits and leaves varying it to future work — this constructor makes
// that experiment possible.
//
// The sizes and stride also pick the fold: lanes when their ring fits
// laneBudget, which the paper's sizes at the paper's stride do (in AVX2
// where the CPU has it), and the per-window fold otherwise. All folds
// give identical results.
func NewWindowedCritPathStride(sizes []int, stride int) *WindowedCritPath {
	return newWindowedCritPath(sizes, stride, laneKernelFold != nil)
}

// NewShardedWindowedCP returns NewWindowedCritPathStride(sizes, stride).
//
// Deprecated: shards is ignored; call NewWindowedCritPathStride.
func NewShardedWindowedCP(sizes []int, stride, shards int) *WindowedCritPath {
	return NewWindowedCritPathStride(sizes, stride)
}

// newWindowedCritPath is NewWindowedCritPathStride with the lane
// kernel allowed or not (see newWindowFold).
func newWindowedCritPath(sizes []int, stride int, kernel bool) *WindowedCritPath {
	maxSize := maxWindow(sizes)
	return &WindowedCritPath{
		windowFold: newWindowFold(append([]int(nil), sizes...), windowStrides(sizes, stride), maxSize, kernel),
		results:    make([]windowAccum, len(sizes)),
		res:        newResolver(maxSize),
		run:        *newProdRun(2 * maxSize),
	}
}

// maxWindow returns the largest window size, at least 1.
func maxWindow(sizes []int) uint64 {
	m := 1
	for _, s := range sizes {
		m = max(m, s)
	}
	return uint64(m)
}

// Events resolves a whole batch of instructions, one at a time.
func (w *WindowedCritPath) Events(evs []isa.Event) {
	for i := range evs {
		w.Event(&evs[i])
	}
}

// Event resolves one instruction.
func (w *WindowedCritPath) Event(ev *isa.Event) {
	if w.resolved(w.res.resolve(ev, w.run.dist)) {
		w.carry()
	}
}

// resolved appends the next event to the run. dist is the run's
// producer list with that event's producer distances appended, by the
// analyzer's resolver or by a merged CritPath's walk. It reports
// whether the run is full, and the caller must then call carry before
// the next event; it stays small enough for the compiler to inline
// into the per-event loops.
func (w *WindowedCritPath) resolved(dist []uint32) (full bool) {
	w.run.push(dist)
	w.pos++
	return w.pos-w.run.base == 2*w.maxSize
}

// carry folds the full run a chunk at a time, the events resolved
// since the last fold in one fold call, and keeps the last maxSize
// events, which hold every later event's producers and every tail
// window. Results folds the rest.
func (w *WindowedCritPath) carry() {
	w.catchUp()
	w.run.carry(w.maxSize)
}

// catchUp folds the events resolved since the last fold.
func (w *WindowedCritPath) catchUp() {
	w.fold(&w.run, w.folded, w.pos, w.results)
	w.folded = w.pos
}

// tailSpan returns the absolute index range of the final window for a
// (size, stride) pair over a stream of n events: the window snapped to
// the end of the stream that covers the instructions no complete
// window reached, or ok=false when the last complete window already
// ends exactly at the stream end. For n < size the single (partial)
// window covers the whole stream.
func tailSpan(n, size, stride uint64) (lo, hi uint64, ok bool) {
	if n == 0 || size == 0 {
		return 0, 0, false
	}
	if n < size {
		return 0, n, true
	}
	complete := (n-size)/stride + 1
	if lastEnd := (complete-1)*stride + size; lastEnd < n {
		return n - size, n, true
	}
	return 0, 0, false
}

// Results returns the aggregates for every window size, in the order
// the sizes were given. It may be called repeatedly; the stream can
// keep growing between calls.
func (w *WindowedCritPath) Results() []WindowResult {
	w.catchUp()
	return w.finish(&w.run, w.pos, w.results)
}
