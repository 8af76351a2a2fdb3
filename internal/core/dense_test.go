package core

import (
	"runtime"
	"testing"

	"isacmp/internal/isa"
	"isacmp/internal/simeng"
)

// storeLoad builds a store event followed by a dependent load at the
// same address, the minimal chain the memory tracker must carry.
func storeEv(addr uint64, size uint8) isa.Event {
	var ev isa.Event
	ev.StoreAddr, ev.StoreSize = addr, size
	return ev
}

func loadEv(addr uint64, size uint8) isa.Event {
	var ev isa.Event
	ev.LoadAddr, ev.LoadSize = addr, size
	ev.AddDst(isa.IntReg(1))
	return ev
}

// TestCritPathPageTable drives chains through addresses in different
// pages of the dense span and through wild addresses outside it, and
// checks the page table and the map fallback agree with a plain
// map-only tracker, for one chain and for both chains in one tracker.
func TestCritPathPageTable(t *testing.T) {
	const base = 0x100000
	const size = 3*8*cpPageWords + 40 // three pages and change
	addrs := []uint64{
		base,                      // first word, first page
		base + 8*cpPageWords,      // first word, second page
		base + 8*cpPageWords - 8,  // last word, first page
		base + 16*cpPageWords + 8, // third page
		base + size - 8,           // last in-span word (partial page)
		base - 8,                  // wild: below span
		base + size,               // wild: just past span
		0xdeadbeef000,             // wild: far away
	}

	lat := heavyLatencies()
	dense, plain := NewCritPath(), NewCritPath()
	scaled := NewScaledCritPath(lat)
	joint, jointPlain := NewJointCritPath(lat), NewJointCritPath(lat)
	for _, c := range []*CritPath{dense, scaled, joint} {
		c.SetDenseRange(base, size)
	}

	for round := 0; round < 3; round++ {
		for _, a := range addrs {
			for _, c := range []*CritPath{dense, plain, scaled, joint, jointPlain} {
				st := storeEv(a, 8)
				c.Event(&st)
				ld := loadEv(a, 8)
				c.Event(&ld)
			}
		}
	}
	if dense.CP() != plain.CP() {
		t.Fatalf("paged CP %d != map CP %d", dense.CP(), plain.CP())
	}
	if dense.Instructions() != plain.Instructions() {
		t.Fatalf("instruction counts differ")
	}
	if scaled.CP() == plain.CP() {
		t.Fatalf("scaled CP %d equals the unit CP: the weights never differed", scaled.CP())
	}
	for name, j := range map[string]*CritPath{"paged": joint, "map": jointPlain} {
		if j.CP() != plain.CP() || j.ScaledCP() != scaled.CP() {
			t.Fatalf("%s joint CP %d / scaled %d, one-chain trackers %d / %d", name, j.CP(), j.ScaledCP(), plain.CP(), scaled.CP())
		}
	}

	for _, c := range []*CritPath{dense, joint} {
		st := c.TrackerStats()
		if want := int((size + 7) / 8); st.DenseWords != want {
			t.Fatalf("DenseWords = %d, want %d", st.DenseWords, want)
		}
		if st.MapEntries != 3 {
			t.Fatalf("MapEntries = %d, want the 3 wild addresses", st.MapEntries)
		}
	}
	// Pages materialize lazily: the span holds 4 page slots and all
	// were touched here, but an untouched span must allocate none.
	for _, fresh := range []*CritPath{NewCritPath(), NewJointCritPath(lat)} {
		fresh.SetDenseRange(base, size)
		for _, p := range fresh.pages {
			if p != nil {
				t.Fatal("page materialized before any write")
			}
		}
	}
}

// TestCritPathUnalignedSpan checks accesses straddling 8-byte word
// and page boundaries land on the same words in the paged and the
// map-only trackers, one-chain and joint.
func TestCritPathUnalignedSpan(t *testing.T) {
	const base = 0x1000
	lat := heavyLatencies()
	dense, plain := NewCritPath(), NewCritPath()
	scaled, joint := NewScaledCritPath(lat), NewJointCritPath(lat)
	for _, c := range []*CritPath{dense, scaled, joint} {
		c.SetDenseRange(base, 16*8*cpPageWords)
	}
	// A 4-byte store crossing the first page's last word into the
	// second page, then loads of each half.
	edge := uint64(base + 8*cpPageWords - 2)
	for _, c := range []*CritPath{dense, plain, scaled, joint} {
		st := storeEv(edge, 4)
		c.Event(&st)
		lo := loadEv(edge, 1)
		c.Event(&lo)
		hi := loadEv(edge+3, 1)
		c.Event(&hi)
	}
	if dense.CP() != plain.CP() {
		t.Fatalf("paged CP %d != map CP %d across page boundary", dense.CP(), plain.CP())
	}
	if joint.CP() != plain.CP() || joint.ScaledCP() != scaled.CP() {
		t.Fatalf("joint CP %d / scaled %d across page boundary, one-chain trackers %d / %d",
			joint.CP(), joint.ScaledCP(), plain.CP(), scaled.CP())
	}
}

// TestCritPathEventsZeroAlloc proves the batch path of the tracker is
// allocation-free once the touched pages exist, with one chain and
// with both.
func TestCritPathEventsZeroAlloc(t *testing.T) {
	const base = 0x1000
	evs := make([]isa.Event, 256)
	for i := range evs {
		a := base + uint64(i%1024)*8
		if i%2 == 0 {
			evs[i] = storeEv(a, 8)
		} else {
			evs[i] = loadEv(a, 8)
		}
	}
	for _, c := range []*CritPath{NewCritPath(), NewJointCritPath(simeng.TX2Latencies())} {
		c.SetDenseRange(base, 1<<20)
		c.Events(evs) // warm up: materializes the touched pages
		allocs := testing.AllocsPerRun(100, func() { c.Events(evs) })
		if allocs != 0 {
			t.Fatalf("steady-state Events (joint %v) allocates %v times per run", c.joint, allocs)
		}
	}
}

// TestCritPathPageBytes: materialising a page of the dense table
// allocates 8 bytes per word (32 KiB) for a one-chain tracker and 16
// (64 KiB) for a joint one, and nothing else. TotalAlloc also counts
// what other goroutines allocate meanwhile (those an earlier test left
// finishing), which only adds, so the least of a few fresh trackers'
// deltas is the page's.
func TestCritPathPageBytes(t *testing.T) {
	lat := simeng.TX2Latencies()
	for _, tc := range []struct {
		name string
		c    func() *CritPath
		want uint64
	}{
		{"unit", NewCritPath, 32 << 10},
		{"scaled", func() *CritPath { return NewScaledCritPath(lat) }, 32 << 10},
		{"joint", func() *CritPath { return NewJointCritPath(lat) }, 64 << 10},
	} {
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			c := tc.c()
			c.SetDenseRange(0x1000, 8*cpPageWords)
			st := storeEv(0x1000, 8)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.Event(&st)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least != tc.want {
			t.Errorf("%s: materialising a page allocated %d bytes, want %d", tc.name, least, tc.want)
		}
	}
}

// TestWordTableRebuild: a rebuild keeps a writer the next event can
// still reach and drops one too old to share a window with it, and
// does not grow the table when few entries survive.
func TestWordTableRebuild(t *testing.T) {
	const oldest = 1000 // writers before this are out of reach
	tab := newWordTable()
	size := len(tab.slots)
	tab.set(0, oldest, 0)   // live; word 0 is storable
	tab.set(8, oldest-1, 0) // dead
	for w := uint64(16); tab.used < size/2; w += 8 {
		tab.set(w, oldest-1, 0)
	}
	tab.set(1<<20, oldest+5, oldest) // the table is half full: rebuild
	if got := tab.get(0); got != oldest {
		t.Fatalf("live writer = %d after rebuild, want %d", got, oldest)
	}
	if got := tab.get(8); got != 0 {
		t.Fatalf("dead writer %d survived the rebuild", got)
	}
	if got := tab.get(1 << 20); got != oldest+5 {
		t.Fatalf("writer stored at the rebuild = %d, want %d", got, oldest+5)
	}
	if len(tab.slots) != size || tab.used != 2 {
		t.Fatalf("after rebuild: %d slots, %d used; want %d and 2", len(tab.slots), tab.used, size)
	}
}

// TestResolverReachAcrossRebuilds: a burst of wide stores rebuilds
// the word table several times, and a writer the largest window can
// still reach survives every rebuild; one event later it is dropped.
func TestResolverReachAcrossRebuilds(t *testing.T) {
	const maxDist = 64
	r := newResolver(maxDist)
	st := storeEv(0x10, 8)
	dist := r.resolve(&st, nil)
	for i := uint64(0); i < maxDist-2; i++ {
		wide := storeEv(0x100000+256*i, 255) // 32 new words each
		dist = r.resolve(&wide, dist[:0])
	}
	if cap(r.mem.spare) == 0 {
		t.Fatal("the stores never rebuilt the table")
	}
	ld := loadEv(0x10, 8)
	if dist = r.resolve(&ld, dist[:0]); len(dist) != 1 || dist[0] != maxDist-1 {
		t.Fatalf("load %d events after the store resolves to %v, want [%d]", maxDist-1, dist, maxDist-1)
	}
	if dist = r.resolve(&ld, dist[:0]); len(dist) != 0 {
		t.Fatalf("load %d events after the store resolves to %v, want none", maxDist, dist)
	}
}

// TestWordTableBounded: a stream storing to far more distinct words
// than the table holds keeps the table sized by the largest window.
func TestWordTableBounded(t *testing.T) {
	const maxDist, n = 2000, 1 << 18
	r := newResolver(maxDist)
	var dist []uint32
	for i := uint64(0); i < n; i++ {
		ev := storeEv(0x100000+8*i, 8)
		dist = r.resolve(&ev, dist[:0])
	}
	// At most maxDist words are live, and the table grows only while
	// they fill a quarter of it.
	if got := len(r.mem.slots); got > 4*2048 {
		t.Fatalf("table holds %d slots after %d distinct words, want <= %d", got, n, 4*2048)
	}
}

// TestWindowedEventsZeroAlloc: once the run, the word table and its
// spare have reached their steady sizes, windowed CP allocates
// nothing, even on a stream that keeps storing to new words, whether
// the lane kernel or laneFold folds it.
func TestWindowedEventsZeroAlloc(t *testing.T) {
	for _, kernel := range []bool{false, laneKernelFold != nil} {
		w := newWindowedCritPath(PaperWindowSizes(), 0, kernel)
		evs := make([]isa.Event, 4096)
		next := uint64(0x100000)
		advance := func() {
			for i := range evs {
				if i%2 == 0 {
					evs[i] = storeEv(next, 16)
					next += 16
				} else {
					evs[i] = loadEv(next-8, 8)
				}
			}
		}
		for i := 0; i < 64; i++ { // warm up
			advance()
			w.Events(evs)
		}
		allocs := testing.AllocsPerRun(100, func() {
			advance()
			w.Events(evs)
		})
		if allocs != 0 {
			t.Fatalf("kernel %v: steady-state Events allocates %v times per run", kernel, allocs)
		}
	}
}

// TestWindowedRunHoldsLargestWindow pins the invariant every window
// evaluation relies on: the run of resolved events always holds the
// last max-window-size events, and it never holds twice as many.
func TestWindowedRunHoldsLargestWindow(t *testing.T) {
	for _, sizes := range [][]int{{4}, {5}, {3, 2000}, PaperWindowSizes()} {
		w := NewWindowedCritPath(sizes)
		maxSize := uint64(maxWindow(sizes))
		// 134,072 events: at least 66 refills of the 2·maxSize run.
		for i, ev := range randEvents(5, 1<<17+3000) {
			w.Event(ev)
			held := w.pos - w.run.base
			if held < min(w.pos, maxSize) || held > 2*maxSize || w.run.end() != w.pos {
				t.Fatalf("sizes %v, event %d: run holds [%d, %d) at pos %d", sizes, i, w.run.base, w.run.end(), w.pos)
			}
		}
	}
}
