package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"isacmp/internal/isa"
	"isacmp/internal/sched"
)

// randEvents builds a deterministic stream mixing register arithmetic,
// loads and stores — the dependence shapes the windowed analysis sees
// from real binaries.
func randEvents(seed int64, n int) []*isa.Event {
	r := rand.New(rand.NewSource(seed))
	out := make([]*isa.Event, n)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = evLoad(isa.IntReg(uint8(r.Intn(30)+1)), isa.IntReg(uint8(r.Intn(30)+1)), uint64(r.Intn(64))*8)
		case 1:
			out[i] = evStore(isa.IntReg(uint8(r.Intn(30)+1)), isa.IntReg(uint8(r.Intn(30)+1)), uint64(r.Intn(64))*8)
		default:
			ev := &isa.Event{Group: isa.GroupIntSimple}
			for s := 0; s < r.Intn(3); s++ {
				ev.AddSrc(isa.IntReg(uint8(r.Intn(30) + 1)))
			}
			ev.AddDst(isa.IntReg(uint8(r.Intn(30) + 1)))
			out[i] = ev
		}
	}
	return out
}

// feed runs the same events through both implementations and returns
// their results.
func runBoth(t *testing.T, events []*isa.Event, sizes []int, stride, shards int) (seq, shard []WindowResult) {
	t.Helper()
	w := NewWindowedCritPathStride(sizes, stride)
	s := NewShardedWindowedCP(sizes, stride, shards)
	for _, ev := range events {
		w.Event(ev)
		s.Event(ev)
	}
	return w.Results(), s.Results()
}

func wantEqualResults(t *testing.T, seq, shard []WindowResult) {
	t.Helper()
	if len(seq) != len(shard) {
		t.Fatalf("result lengths differ: %d vs %d", len(seq), len(shard))
	}
	for i := range seq {
		if seq[i] != shard[i] {
			t.Fatalf("size %d: sequential %+v != sharded %+v", seq[i].Size, seq[i], shard[i])
		}
	}
}

// TestShardedMatchesSequential is the determinism contract at the
// analysis level: the sharded implementation must be bit-identical to
// the sequential one — same windows, same integer sums, same float
// divisions — for streams long enough to cross several chunk
// dispatches. Every seam restarts a shard's fold. The paper's strides
// 2, 8 and 32 divide the seams and 100, 250, 500 and 1000 do not, so a
// restart whose first window starts after the seam is covered; odd
// sizes at stride W/2 leave lanes idle between windows; stride 333
// restarts inside windows; and at stride 1 the ring exceeds laneBudget,
// so the shards fold per window.
func TestShardedMatchesSequential(t *testing.T) {
	const n = 3*shardChunk + 1234 // several dispatched chunks plus a remainder
	events := randEvents(1, n)
	for _, c := range []struct {
		sizes  []int
		stride int
	}{
		{PaperWindowSizes(), 0},
		{[]int{3, 7, 201, 1999}, 0},
		{[]int{3, 7, 200, 2000}, 333},
		{[]int{1, 3, 600}, 1},
	} {
		for _, shards := range []int{1, 2, 3, 7} {
			seq, shard := runBoth(t, events, c.sizes, c.stride, shards)
			wantEqualResults(t, seq, shard)
		}
	}
}

// TestShardedMatchesSequentialStrides covers explicit strides,
// including stride 1 (every position) and stride == size (disjoint
// windows), at stream lengths that do and do not leave a tail.
func TestShardedMatchesSequentialStrides(t *testing.T) {
	for _, stride := range []int{1, 3, 4, 100} {
		for _, n := range []int{0, 1, 3, 4, 5, 1000, shardChunk, shardChunk + 1, shardChunk + 2049} {
			events := randEvents(int64(stride*100000+n), n)
			seq, shard := runBoth(t, events, []int{1, 4, 16, 64}, stride, 3)
			wantEqualResults(t, seq, shard)
		}
	}
}

// TestWindowLargerThanTrace: a window size exceeding the stream length
// yields exactly one partial window covering the whole stream, whose
// mean length (not the nominal size) enters the ILP average.
func TestWindowLargerThanTrace(t *testing.T) {
	const n = 10
	w := NewWindowedCritPath([]int{64})
	for i := 0; i < n; i++ {
		w.Event(evAdd(isa.IntReg(1), isa.IntReg(1))) // fully serial
	}
	res := w.Results()[0]
	if res.Windows != 1 {
		t.Fatalf("windows = %d, want 1", res.Windows)
	}
	if res.MeanCP != n {
		t.Fatalf("mean CP = %v, want %d (serial chain over the whole stream)", res.MeanCP, n)
	}
	if res.MeanILP != 1 {
		t.Fatalf("mean ILP = %v, want 1 (partial window averaged by true length)", res.MeanILP)
	}

	s := NewShardedWindowedCP([]int{64}, 0, 2)
	for i := 0; i < n; i++ {
		s.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	if got := s.Results()[0]; got != res {
		t.Fatalf("sharded %+v != sequential %+v", got, res)
	}
}

// TestWindowSizeOne: every instruction is its own window; CP and ILP
// are exactly 1.
func TestWindowSizeOne(t *testing.T) {
	w := NewWindowedCritPath([]int{1})
	const n = 37
	for i := 0; i < n; i++ {
		w.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	res := w.Results()[0]
	if res.Windows != n {
		t.Fatalf("windows = %d, want %d", res.Windows, n)
	}
	if res.MeanCP != 1 || res.MeanILP != 1 {
		t.Fatalf("CP/ILP = %v/%v, want 1/1", res.MeanCP, res.MeanILP)
	}
}

// TestWindowEmptyTrace: no events means no windows and zero means —
// not NaN, not a panic.
func TestWindowEmptyTrace(t *testing.T) {
	w := NewWindowedCritPath(PaperWindowSizes())
	for _, res := range w.Results() {
		if res.Windows != 0 || res.MeanCP != 0 || res.MeanILP != 0 {
			t.Fatalf("size %d: %+v, want all zero", res.Size, res)
		}
	}
	s := NewShardedWindowedCP(PaperWindowSizes(), 0, 2)
	for _, res := range s.Results() {
		if res.Windows != 0 || res.MeanCP != 0 || res.MeanILP != 0 {
			t.Fatalf("sharded size %d: %+v, want all zero", res.Size, res)
		}
	}
}

// TestWindowNoSizes: an empty size list must not panic on events.
func TestWindowNoSizes(t *testing.T) {
	w := NewWindowedCritPath(nil)
	w.Event(evAdd(isa.IntReg(1)))
	if got := w.Results(); len(got) != 0 {
		t.Fatalf("results = %+v, want empty", got)
	}
	s := NewShardedWindowedCP(nil, 0, 2)
	s.Event(evAdd(isa.IntReg(1)))
	if got := s.Results(); len(got) != 0 {
		t.Fatalf("sharded results = %+v, want empty", got)
	}
}

// TestWindowTailPartial pins the tail-window arithmetic: 10 events,
// size 4, stride 2 → complete windows end at 4, 6, 8, 10 and cover
// every instruction, so no tail; 11 events leave instruction 10 and a
// tail window [7, 11) appears.
func TestWindowTailPartial(t *testing.T) {
	w := NewWindowedCritPath([]int{4})
	for i := 0; i < 10; i++ {
		w.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	if got := w.Results()[0].Windows; got != 4 {
		t.Fatalf("10 events: windows = %d, want 4 (no tail)", got)
	}
	w.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	res := w.Results()[0]
	if res.Windows != 5 {
		t.Fatalf("11 events: windows = %d, want 5 (tail [7,11))", res.Windows)
	}
	// All serial: each of the 5 windows (all full-size, the tail is
	// snapped to the end) has CP 4.
	if res.MeanCP != 4 || res.MeanILP != 1 {
		t.Fatalf("11 events: CP/ILP = %v/%v, want 4/1", res.MeanCP, res.MeanILP)
	}
}

// TestShardedResultsIdempotent: Results may be called repeatedly and
// returns the same cached slice.
func TestShardedResultsIdempotent(t *testing.T) {
	s := NewShardedWindowedCP([]int{4}, 0, 2)
	for _, ev := range randEvents(7, 100) {
		s.Event(ev)
	}
	a := s.Results()
	b := s.Results()
	wantEqualResults(t, a, b)
}

// TestShardedClose: Close, called in place of Results with chunks
// dispatched and likely still queued, returns with every shard stopped.
func TestShardedClose(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewShardedWindowedCP(PaperWindowSizes(), 0, 2)
	for _, ev := range randEvents(3, 5*shardChunk) {
		s.Event(ev)
	}
	s.Close()
	s.Close() // a second Close does nothing
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Close", runtime.NumGoroutine()-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSequentialResultsStreamable: the sequential implementation
// allows Results mid-stream without disturbing later windows.
func TestSequentialResultsStreamable(t *testing.T) {
	events := randEvents(21, 300)
	w := NewWindowedCritPath([]int{16})
	for i, ev := range events {
		w.Event(ev)
		if i == 150 {
			w.Results() // must not perturb the accumulators
		}
	}
	ref := NewWindowedCritPath([]int{16})
	for _, ev := range events {
		ref.Event(ev)
	}
	wantEqualResults(t, ref.Results(), w.Results())
}

// TestShardedConcurrentCells models the matrix under -parallel: many
// cells run at once on a worker pool, each feeding its own
// ShardedWindowedCP (single-goroutine per instance, per the contract)
// whose shard goroutines overlap with every other cell's. Under -race
// this pins that nothing is shared across instances, and every cell
// still matches the sequential implementation bit for bit.
func TestShardedConcurrentCells(t *testing.T) {
	const cells = 8
	type result struct{ seq, shard []WindowResult }
	results := make([]result, cells)
	pool := sched.NewPool(4, nil)
	for i := 0; i < cells; i++ {
		i := i
		pool.Go(func() {
			events := randEvents(int64(i+1), shardChunk+517*i)
			w := NewWindowedCritPathStride(PaperWindowSizes(), 0)
			s := NewShardedWindowedCP(PaperWindowSizes(), 0, 3)
			for _, ev := range events {
				w.Event(ev)
				s.Event(ev)
			}
			results[i] = result{seq: w.Results(), shard: s.Results()}
		})
	}
	pool.Close()
	for i := range results {
		wantEqualResults(t, results[i].seq, results[i].shard)
	}
}
