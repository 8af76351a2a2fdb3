package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/fusion"
	"isacmp/internal/isa"
	"isacmp/internal/simeng"
	"isacmp/internal/workloads"
)

// The reference below is deliberately naive: fresh maps for every
// window, window placement derived directly from the paper's rule, and
// memory words found byte by byte. It shares no code with the
// optimised analyses it checks.

// refWords lists the 8-byte-aligned words an access of size bytes at
// addr touches.
func refWords(addr uint64, size uint8) []uint64 {
	var out []uint64
	for b := uint64(0); b < uint64(size); b++ {
		if w := (addr + b) &^ 7; len(out) == 0 || out[len(out)-1] != w {
			out = append(out, w)
		}
	}
	return out
}

// refCP returns the unit-weight and the latency-scaled critical path
// of evs (section 4.1; loads and stores weigh 1 when scaled).
func refCP(evs []isa.Event, lat *simeng.LatencyModel) (cp, scaled uint64) {
	reg := map[isa.Reg][2]uint64{}
	mem := map[uint64][2]uint64{}
	for i := range evs {
		ev := &evs[i]
		var in [2]uint64
		take := func(v [2]uint64) { in[0], in[1] = max(in[0], v[0]), max(in[1], v[1]) }
		for _, r := range ev.Srcs[:ev.NSrcs] {
			take(reg[r])
		}
		for _, w := range append(refWords(ev.LoadAddr, ev.LoadSize), refWords(ev.Load2Addr, ev.Load2Size)...) {
			take(mem[w])
		}
		weight := uint64(1)
		if ev.Group != isa.GroupLoad && ev.Group != isa.GroupStore {
			weight = uint64(lat.Latency(ev.Group))
		}
		out := [2]uint64{in[0] + 1, in[1] + weight}
		for _, r := range ev.Dsts[:ev.NDsts] {
			reg[r] = out
		}
		for _, w := range refWords(ev.StoreAddr, ev.StoreSize) {
			mem[w] = out
		}
		cp, scaled = max(cp, out[0]), max(scaled, out[1])
	}
	return cp, scaled
}

// refDepDist is DepDistance by its definition: each event's edges go
// to the distinct events fewer than 2^16 back that last wrote one of
// its register sources or a word one of its loads reads. It returns
// the edge count, the distance sum and the power-of-two histogram.
func refDepDist(evs []isa.Event) (count, sum uint64, buckets [16]uint64) {
	reg := map[isa.Reg]int{}
	mem := map[uint64]int{}
	for i := range evs {
		ev := &evs[i]
		producers := map[int]bool{}
		for _, r := range ev.Srcs[:ev.NSrcs] {
			if p, ok := reg[r]; ok {
				producers[p] = true
			}
		}
		for _, w := range append(refWords(ev.LoadAddr, ev.LoadSize), refWords(ev.Load2Addr, ev.Load2Size)...) {
			if p, ok := mem[w]; ok {
				producers[p] = true
			}
		}
		for p := range producers {
			if d := i - p; d < 1<<16 {
				count, sum = count+1, sum+uint64(d)
				buckets[bits.Len(uint(d))-1]++
			}
		}
		for _, r := range ev.Dsts[:ev.NDsts] {
			reg[r] = i
		}
		for _, w := range refWords(ev.StoreAddr, ev.StoreSize) {
			mem[w] = i
		}
	}
	return count, sum, buckets
}

// checkDepDist diffs DepDistance against the reference on one stream.
func checkDepDist(t *testing.T, name string, evs []isa.Event) {
	t.Helper()
	d := NewDepDistance()
	d.Events(evs)
	count, sum, buckets := refDepDist(evs)
	if d.Count() != count || d.sum != sum || !slices.Equal(d.Buckets(), buckets[:]) {
		t.Fatalf("%s: DepDistance %d edges, sum %d, buckets %v; reference %d, %d, %v",
			name, d.Count(), d.sum, d.Buckets(), count, sum, buckets)
	}
}

// refWindows is Figure 2 by the paper's rule: windows of each size
// start at 0 and every stride (size/2 by default) while they fit, and
// one final window snapped to the stream end covers any instructions
// the last complete window missed (the whole stream when it is shorter
// than the window).
func refWindows(evs []isa.Event, sizes []int, stride int) []WindowResult {
	n, unit := len(evs), simeng.UnitLatencies()
	out := make([]WindowResult, len(sizes))
	for i, size := range sizes {
		out[i].Size = size
		if size <= 0 {
			continue
		}
		st := stride
		if st == 0 {
			st = size / 2
		}
		st = min(max(st, 1), size)
		var sumCP, sumLen, count, covered int
		window := func(lo, hi int) {
			cp, _ := refCP(evs[lo:hi], unit)
			sumCP, sumLen, count, covered = sumCP+int(cp), sumLen+hi-lo, count+1, hi
		}
		for lo := 0; lo+size <= n; lo += st {
			window(lo, lo+size)
		}
		if covered < n {
			window(max(n-size, 0), n)
		}
		if count > 0 {
			out[i] = WindowResult{Size: size, Windows: uint64(count), MeanCP: float64(sumCP) / float64(count)}
			out[i].MeanILP = float64(sumLen) / float64(count) / out[i].MeanCP
		}
	}
	return out
}

// checkOracle diffs every optimised analysis against the reference on
// one stream. Windowed CP runs twice: as NewWindowedCritPathStride
// picks its fold, and without the lane kernel, so laneFold, the lane
// fold of CPUs without AVX2, is diffed on every host. So does the
// merged walk (checkMerged), over the same split dense range as the
// paged joint tracker.
func checkOracle(t *testing.T, name string, evs []isa.Event, sizes []int, stride int) {
	t.Helper()
	want := refWindows(evs, sizes, stride)
	analyzers := map[string]*WindowedCritPath{
		"selected fold":      NewWindowedCritPathStride(sizes, stride),
		"without the kernel": newWindowedCritPath(sizes, stride, false),
	}
	for which, a := range analyzers {
		a.Events(evs)
		for i, got := range a.Results() {
			if got != want[i] {
				t.Fatalf("%s: windowed CP (%s) size %d = %+v, reference %+v", name, which, sizes[i], got, want[i])
			}
		}
	}
	lat := simeng.TX2Latencies()
	cp, scaled := NewCritPath(), NewScaledCritPath(lat)
	joint, paged := NewJointCritPath(lat), NewJointCritPath(lat)
	// paged keeps the lower half of the stream's address span in the
	// page table and the rest in the map.
	lo, hi := addrSpan(evs)
	paged.SetDenseRange(lo, (hi-lo)/2)
	for _, c := range []*CritPath{cp, scaled, joint, paged} {
		c.Events(evs)
	}
	wantCP, wantScaled := refCP(evs, lat)
	if cp.CP() != wantCP || scaled.CP() != wantScaled {
		t.Fatalf("%s: CP %d / scaled %d, reference %d / %d", name, cp.CP(), scaled.CP(), wantCP, wantScaled)
	}
	for which, j := range map[string]*CritPath{"joint": joint, "paged joint": paged} {
		if j.CP() != wantCP || j.ScaledCP() != wantScaled {
			t.Fatalf("%s: %s CP %d / scaled %d, reference %d / %d", name, which, j.CP(), j.ScaledCP(), wantCP, wantScaled)
		}
	}
	checkMerged(t, name, evs, sizes, stride, want, lo, (hi-lo)/2)
	checkDepDist(t, name, evs)
}

// checkMerged diffs the merged walk against the reference on one
// stream: a joint tracker merged with windowed CP (MergeWindowed), as
// NewWindowedCritPathStride picks its fold and without the lane
// kernel, over the dense range [base, base+size), which callers place
// so that both the page table and the map fallback are hit. Its chains
// and every window must equal the reference's (want is refWindows of
// evs at sizes and stride), and its footprint that of a joint tracker
// over the same range.
func checkMerged(t *testing.T, name string, evs []isa.Event, sizes []int, stride int, want []WindowResult, base, size uint64) {
	t.Helper()
	lat := simeng.TX2Latencies()
	wantCP, wantScaled := refCP(evs, lat)
	joint := NewJointCritPath(lat)
	joint.SetDenseRange(base, size)
	joint.Events(evs)
	for which, w := range map[string]*WindowedCritPath{
		"selected fold":      NewWindowedCritPathStride(sizes, stride),
		"without the kernel": newWindowedCritPath(sizes, stride, false),
	} {
		m := NewJointCritPath(lat)
		m.SetDenseRange(base, size)
		m.MergeWindowed(w)
		m.Events(evs)
		if m.CP() != wantCP || m.ScaledCP() != wantScaled || m.TrackerStats() != joint.TrackerStats() {
			t.Fatalf("%s: merged walk (%s) CP %d / scaled %d, footprint %+v; reference %d / %d, joint footprint %+v",
				name, which, m.CP(), m.ScaledCP(), m.TrackerStats(), wantCP, wantScaled, joint.TrackerStats())
		}
		for i, got := range w.Results() {
			if got != want[i] {
				t.Fatalf("%s: merged walk (%s) sizes %v stride %d, size %d = %+v, reference %+v",
					name, which, sizes, stride, sizes[i], got, want[i])
			}
		}
	}
}

// addrSpan returns the lowest and one past the highest byte address
// evs access, or 0, 0 for a stream without memory accesses.
func addrSpan(evs []isa.Event) (lo, hi uint64) {
	lo = ^uint64(0)
	for i := range evs {
		ev := &evs[i]
		for _, a := range [][2]uint64{
			{ev.LoadAddr, uint64(ev.LoadSize)}, {ev.Load2Addr, uint64(ev.Load2Size)}, {ev.StoreAddr, uint64(ev.StoreSize)},
		} {
			if a[1] != 0 {
				lo, hi = min(lo, a[0]), max(hi, a[0]+a[1])
			}
		}
	}
	if hi == 0 {
		return 0, 0
	}
	return lo, hi
}

// randStream builds a stream whose memory accesses are unaligned,
// span several words, collide in a small address range and include
// the second load of a fused load pair, with every latency group.
func randStream(seed int64, n int) []isa.Event {
	r := rand.New(rand.NewSource(seed))
	reg := func() isa.Reg { return isa.Reg(r.Intn(12)) }
	access := func() (uint64, uint8) { return 0x8000 + uint64(r.Intn(300)), uint8(1 + r.Intn(40)) }
	evs := make([]isa.Event, n)
	for i := range evs {
		ev := &evs[i]
		ev.Group = isa.Group(r.Intn(int(isa.NumGroups)))
		for s := r.Intn(5); s > 0; s-- {
			ev.AddSrc(reg())
		}
		for d := r.Intn(3); d > 0; d-- {
			ev.AddDst(reg())
		}
		switch r.Intn(6) {
		case 0:
			ev.LoadAddr, ev.LoadSize = access()
		case 1:
			ev.LoadAddr, ev.LoadSize = access()
			ev.Load2Addr, ev.Load2Size = access()
		case 2, 3:
			ev.StoreAddr, ev.StoreSize = access()
		}
	}
	return evs
}

// TestOracleRandomStreams diffs the optimised analyses against the
// reference on seeded random streams, with the paper's stride and
// explicit ones. The analyzers fold by lanes in every case but the
// last, whose ring is over budget: odd sizes at the paper's stride and
// a stride that divides no size leave lanes idle between windows.
func TestOracleRandomStreams(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		// 133,572 events: 65 refills of the 2·maxSize run at the
		// paper's sizes.
		evs := randStream(seed, 1<<17+2500)
		checkOracle(t, "random", evs, PaperWindowSizes(), 0)
		checkOracle(t, "random", evs[:777], []int{1, 3, 4, 16, 64}, int(seed))
	}
	evs := randStream(4, 4500)
	checkOracle(t, "odd sizes", evs, []int{3, 7, 201, 1999}, 0)
	checkOracle(t, "stride 333", evs, []int{3, 7, 200, 2000}, 333)
	checkOracle(t, "stride 1", evs, PaperWindowSizes(), 1)
	paper, stride1 := NewWindowedCritPath(PaperWindowSizes()), NewWindowedCritPathStride(PaperWindowSizes(), 1)
	if (paper.kernel != nil) != (laneKernelFold != nil) || paper.kernel == nil && paper.lanes == nil ||
		stride1.kernel != nil || stride1.lanes != nil {
		t.Fatal("the paper's sizes must fold by lanes at stride W/2, with the kernel where the CPU runs it, and per window at stride 1")
	}
	// A register and a word written once, then read back by a fused
	// load pair just inside and just outside DepDistance's reach.
	for _, gap := range []int{1<<16 - 1, 1 << 16} {
		evs := randStream(5, gap+1)
		evs[0] = isa.Event{StoreAddr: 0x9000, StoreSize: 8}
		evs[0].AddDst(40)
		evs[gap] = isa.Event{LoadAddr: 0x9000, LoadSize: 8, Load2Addr: 0x9004, Load2Size: 8}
		evs[gap].AddSrc(40)
		if _, _, b := refDepDist(evs); (b[15] == 1) != (gap < 1<<16) {
			t.Fatalf("gap %d: reference bucket 15 = %d", gap, b[15])
		}
		checkDepDist(t, fmt.Sprintf("gap %d", gap), evs)
	}
}

// TestOracleStrides diffs the analyses against the reference over a
// grid of explicit strides, among them stride 1 (every position) and
// stride == size (disjoint windows), at stream lengths that do and do
// not leave a tail, including streams shorter than every window.
func TestOracleStrides(t *testing.T) {
	sizes := []int{1, 4, 16, 64}
	for _, stride := range []int{1, 3, 4, 100} {
		for _, n := range []int{0, 1, 3, 4, 5, 1000} {
			name := fmt.Sprintf("stride %d, %d events", stride, n)
			checkOracle(t, name, randStream(int64(stride*100000+n), n), sizes, stride)
		}
	}
}

// collector keeps a copy of every event it receives.
type collector struct{ evs []isa.Event }

func (c *collector) Event(ev *isa.Event) { c.evs = append(c.evs, *ev) }

// tinyStream is the retired stream of one tiny-scale paper workload on
// one target, raw or macro-op-fused.
type tinyStream struct {
	name string
	evs  []isa.Event
}

// tinyStreams returns the stream of every tiny-scale paper workload
// on every target, raw and fused by every rule.
func tinyStreams(t *testing.T) []tinyStream {
	t.Helper()
	both, err := fusion.ParseSpec("both")
	if err != nil {
		t.Fatal(err)
	}
	var out []tinyStream
	for _, prog := range workloads.Suite(workloads.Tiny) {
		for _, tgt := range cc.Targets() {
			compiled, err := cc.Compile(prog, tgt)
			if err != nil {
				t.Fatal(err)
			}
			for _, fuse := range []bool{false, true} {
				mach, _, err := compiled.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				var c collector
				var sink isa.Sink = &c
				name := prog.Name + "/" + tgt.String()
				var pass *fusion.Pass
				if fuse {
					pass = fusion.NewPass(both, tgt.Arch, &c)
					sink, name = pass, name+"/fused"
				}
				if _, err := (&simeng.EmulationCore{}).Run(mach, sink); err != nil {
					t.Fatal(err)
				}
				if pass != nil {
					pass.Flush()
				}
				out = append(out, tinyStream{name, c.evs})
			}
		}
	}
	return out
}

// TestOracleTinyWorkloads diffs the optimised analyses against the
// reference on every tiny-scale paper workload and target, on the
// raw stream and on the macro-op-fused one.
func TestOracleTinyWorkloads(t *testing.T) {
	for _, s := range tinyStreams(t) {
		checkOracle(t, s.name, s.evs, PaperWindowSizes(), 0)
	}
}

// An access the fuzz decoder places lands at fuzzBase plus its offset,
// or, with its placement bit set, at fuzzSeam-256 plus its offset: on
// either side of the 32 KiB seam between the first two pages of the
// dense range FuzzCritPath sets up, or past that range's end, which
// lies 128 bytes beyond the seam.
const (
	fuzzBase     = 0x1000
	fuzzSeam     = fuzzBase + 8*cpPageWords
	fuzzDenseEnd = fuzzSeam + 128
)

// decodeEvents decodes fuzz bytes into an event stream. Each event is
// a flags byte (bits 0-2 sources, 3-4 destinations, 5 load, 6 second
// load, 7 store), a kind byte (bits 0-3 the group, modulo the group
// count; bits 4-6 the placement of the load, the second load and the
// store), its register bytes, then an offset and a size byte per
// access. Offsets fall in one 256-byte range per placement, so words
// collide, and sizes reach 255 bytes, so a fused load pair can have
// four register and dozens of memory producers. Decoding stops at the
// first event the bytes do not complete.
func decodeEvents(data []byte) []isa.Event {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	access := func(far bool) (uint64, uint8, bool) {
		off, ok1 := next()
		size, ok2 := next()
		base := uint64(fuzzBase)
		if far {
			base = fuzzSeam - 256
		}
		return base + uint64(off), max(size, 1), ok1 && ok2
	}
	var evs []isa.Event
	for {
		flags, ok1 := next()
		kind, ok2 := next()
		if !ok1 || !ok2 {
			return evs
		}
		ev := isa.Event{Group: isa.Group(kind&15) % isa.NumGroups}
		for i := 0; i < min(int(flags&7), 4); i++ {
			r, _ := next()
			ev.AddSrc(isa.Reg(r % isa.NumRegs))
		}
		for i := 0; i < min(int(flags>>3&3), 2); i++ {
			r, _ := next()
			ev.AddDst(isa.Reg(r % isa.NumRegs))
		}
		ok := true
		if flags&0x20 != 0 {
			ev.LoadAddr, ev.LoadSize, ok = access(kind&0x10 != 0)
		}
		if flags&0x40 != 0 && ok {
			ev.Load2Addr, ev.Load2Size, ok = access(kind&0x20 != 0)
		}
		if flags&0x80 != 0 && ok {
			ev.StoreAddr, ev.StoreSize, ok = access(kind&0x40 != 0)
		}
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

// chainSeed is a decodeEvents stream whose last event, a fused load
// pair, has fourteen distinct producers and finds its deepest last: a
// five-deep chain stored to one word, then nine shallow stores and
// four shallow register writes. kind is every event's kind byte.
func chainSeed(kind byte) []byte {
	var seed []byte
	for i := 0; i < 5; i++ {
		seed = append(seed, 0x09, kind, 1, 1)
	}
	seed = append(seed, 0x81, kind, 1, 0xf8, 8)
	for off := byte(0); off <= 0x40; off += 8 {
		seed = append(seed, 0x80, kind, off, 8)
	}
	for r := byte(2); r <= 5; r++ {
		seed = append(seed, 0x08, kind, r)
	}
	return append(seed, 0x6c, kind, 2, 3, 4, 5, 6, 0, 72, 0xf8, 8)
}

// FuzzWindowedCP decodes bytes into an event stream (decodeEvents,
// after a first byte that picks the stride) and checks that windowed
// CP matches the reference, as NewWindowedCritPathStride picks its
// fold and without the lane kernel, alone and in the merged walk
// (checkMerged) over FuzzCritPath's dense range, on two size sets that
// between them reach the lane and per-window folds.
func FuzzWindowedCP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0xff, 0x13, 1, 2, 3, 4, 5, 6, 0, 0xff, 7, 0xff, 9, 0xff, 0xe2, 0x47, 1, 2, 0x10, 0xf0, 0x33, 0x80, 0x11, 0x40})
	f.Add(append([]byte{0}, chainSeed(0)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		stride, evs := int(data[0]%4), decodeEvents(data[1:])
		// The sequential analyzer folds the first set by lanes at every
		// stride; the second set's ring exceeds the lane budget at
		// strides 1 and 2, so it folds per window there.
		for _, sizes := range [][]int{{1, 2, 3, 4, 7, 16, 64}, {1, 3, 600}} {
			want := refWindows(evs, sizes, stride)
			w, goLanes := NewWindowedCritPathStride(sizes, stride), newWindowedCritPath(sizes, stride, false)
			w.Events(evs)
			goLanes.Events(evs)
			for i, got := range w.Results() {
				if other := goLanes.Results()[i]; got != want[i] || other != want[i] {
					t.Fatalf("sizes %v size %d: windowed %+v, without the kernel %+v, reference %+v", sizes, sizes[i], got, other, want[i])
				}
			}
			checkMerged(t, "fuzz", evs, sizes, stride, want, fuzzBase, fuzzDenseEnd-fuzzBase)
		}
	})
}

// FuzzCritPath decodes bytes into an event stream (decodeEvents) and
// checks the Table 1 and Table 2 trackers against the reference: the
// one-chain trackers and a joint one over the dense range, whose seam
// and end the placement bits reach, and a joint one on the map alone.
// The paged joint tracker must also report the one-chain footprint.
// The merged walk (checkMerged) runs over the same dense range at
// strides 0, 1 and 3 with sizes that fold by lanes (by the kernel
// where the CPU runs it, and by laneFold), and at stride 1 with sizes
// whose ring is over the lane budget, so they fold per window.
func FuzzCritPath(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x13, 1, 2, 3, 4, 5, 6, 0, 0xff, 7, 0xff, 9, 0xff, 0xe2, 0x47, 1, 2, 0x10, 0xf0, 0x33, 0x80, 0x11, 0x40})
	f.Add(chainSeed(byte(isa.GroupFPAdd)))
	// A chain through stores and loads that cross the dense range's
	// first page seam and run past its end.
	f.Add([]byte{
		0x09, 0x02, 1, 1, // x1 = f(x1), an integer divide
		0x81, 0x42, 1, 0xf0, 0xa0, // store x1 across the seam and the end
		0x29, 0x17, 2, 2, 0xff, 0xff, // x2 = f(x2, load across both)
		0xa9, 0x47, 2, 3, 0x10, 8, 0xff, 0x90, // x3 = f(x2, near load); store x3 across both
		0x69, 0x39, 3, 4, 0xf8, 0x10, 0xf0, 0xa0, // x4 = f(x3, fused pair across both)
	})
	// A load whose words past the range's end, in the map fallback,
	// were last written by a deeper store than its words inside it, so
	// the map's last writer alone decides the load's deepest producer.
	f.Add([]byte{
		0x09, 0x02, 1, 1, 0x09, 0x02, 1, 1, 0x09, 0x02, 1, 1, // x1 = f(x1), three times
		0x81, 0x42, 1, 0xf8, 0xa0, // store x1 from the seam to past the end
		0x80, 0x42, 0xf8, 0x88, // store nothing up to the end
		0x28, 0x12, 2, 0xf8, 0xa0, // x2 = load of the first store's span
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeEvents(data)
		lat := simeng.TX2Latencies()
		wantCP, wantScaled := refCP(evs, lat)
		unit, scaled, joint, jointMap := NewCritPath(), NewScaledCritPath(lat), NewJointCritPath(lat), NewJointCritPath(lat)
		for _, c := range []*CritPath{unit, scaled, joint} {
			c.SetDenseRange(fuzzBase, fuzzDenseEnd-fuzzBase)
		}
		for _, c := range []*CritPath{unit, scaled, joint, jointMap} {
			c.Events(evs)
		}
		if unit.CP() != wantCP || scaled.CP() != wantScaled {
			t.Fatalf("CP %d / scaled %d, reference %d / %d", unit.CP(), scaled.CP(), wantCP, wantScaled)
		}
		for name, j := range map[string]*CritPath{"paged": joint, "map": jointMap} {
			if j.CP() != wantCP || j.ScaledCP() != wantScaled {
				t.Fatalf("%s joint CP %d / scaled %d, reference %d / %d", name, j.CP(), j.ScaledCP(), wantCP, wantScaled)
			}
		}
		if joint.TrackerStats() != unit.TrackerStats() {
			t.Fatalf("joint footprint %+v, one-chain %+v", joint.TrackerStats(), unit.TrackerStats())
		}
		for _, w := range []struct {
			sizes  []int
			stride int
		}{{[]int{1, 2, 3, 4, 7, 16, 64}, 0}, {[]int{1, 2, 3, 4, 7, 16, 64}, 1}, {[]int{1, 2, 3, 4, 7, 16, 64}, 3}, {[]int{1, 3, 600}, 1}} {
			checkMerged(t, "fuzz", evs, w.sizes, w.stride, refWindows(evs, w.sizes, w.stride), fuzzBase, fuzzDenseEnd-fuzzBase)
		}
	})
}
