package sched

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"isacmp/internal/isa"
	"isacmp/internal/telemetry"
)

func TestPoolRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers, nil)
		var n atomic.Int64
		const tasks = 100
		for i := 0; i < tasks; i++ {
			p.Go(func() { n.Add(1) })
		}
		p.Close()
		if n.Load() != tasks {
			t.Fatalf("workers=%d: ran %d tasks, want %d", workers, n.Load(), tasks)
		}
	}
}

// TestPoolSingleWorkerSequential: with one worker, tasks run strictly
// in submission order — the property `-parallel 1` relies on.
func TestPoolSingleWorkerSequential(t *testing.T) {
	p := NewPool(1, nil)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		p.Go(func() { order = append(order, i) })
	}
	p.Close()
	for i, got := range order {
		if got != i {
			t.Fatalf("task %d ran at position %d", got, i)
		}
	}
}

func TestPoolWait(t *testing.T) {
	p := NewPool(3, nil)
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		p.Go(func() { n.Add(1) })
	}
	p.Wait()
	if n.Load() != 10 {
		t.Fatalf("after Wait: %d tasks done, want 10", n.Load())
	}
	// The pool is still usable after Wait.
	p.Go(func() { n.Add(1) })
	p.Close()
	if n.Load() != 11 {
		t.Fatalf("after Close: %d tasks done, want 11", n.Load())
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool(2, nil)
	for i := 0; i < 20; i++ {
		p.Go(func() {})
	}
	p.Close()
	st := p.Stats()
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
	if st.Cells != 20 {
		t.Fatalf("cells = %d, want 20", st.Cells)
	}
	if len(st.WorkerUtilization) != 2 || len(st.WorkerCells) != 2 {
		t.Fatalf("per-worker slices: %+v", st)
	}
	var total int64
	for _, c := range st.WorkerCells {
		total += c
	}
	if total != 20 {
		t.Fatalf("worker cells sum to %d, want 20", total)
	}
}

func TestPoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(2, reg)
	for i := 0; i < 5; i++ {
		p.Go(func() {})
	}
	p.Close()
	snap := reg.Snapshot()
	var cells uint64
	for _, c := range snap.Counters {
		if c.Name == "sched.cells.total" {
			cells = c.Value
		}
	}
	if cells != 5 {
		t.Fatalf("sched.cells.total = %d, want 5", cells)
	}
	var foundHist, foundGauge bool
	for _, h := range snap.Histograms {
		if h.Name == "sched.cell.seconds" && h.Count == 5 {
			foundHist = true
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == "sched.worker.1.depth" {
			foundGauge = true
		}
	}
	if !foundHist || !foundGauge {
		t.Fatalf("missing sched metrics: hist=%v gauge=%v", foundHist, foundGauge)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers(3) != 3 {
		t.Fatal("explicit count not honoured")
	}
	if DefaultWorkers(0) < 1 || DefaultWorkers(-1) < 1 {
		t.Fatal("default must be at least one worker")
	}
}

// orderSink records the PC of every event it sees.
type orderSink struct{ pcs []uint64 }

func (o *orderSink) Event(ev *isa.Event) { o.Events(isa.One(ev)) }

func (o *orderSink) Events(evs []isa.Event) {
	for i := range evs {
		o.pcs = append(o.pcs, evs[i].PC)
	}
}

// genEvents returns a generator streaming n events with PC = index.
func genEvents(n int) func(isa.Sink) error {
	return func(s isa.Sink) error {
		for i := 0; i < n; i++ {
			ev := isa.Event{PC: uint64(i)}
			s.Event(&ev)
		}
		return nil
	}
}

// TestFanoutCompleteOrderedStreams: every consumer observes the whole
// stream in generation order, across batch boundaries.
func TestFanoutCompleteOrderedStreams(t *testing.T) {
	const n = 3*fanoutBatch + 17
	sinks := []*orderSink{{}, {}, {}}
	count, err := FanoutTimed(genEvents(n), &FanoutStats{}, sinks[0], sinks[1], sinks[2])
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	for si, s := range sinks {
		if len(s.pcs) != n {
			t.Fatalf("sink %d saw %d events, want %d", si, len(s.pcs), n)
		}
		for i, pc := range s.pcs {
			if pc != uint64(i) {
				t.Fatalf("sink %d event %d: pc = %d (out of order)", si, i, pc)
			}
		}
	}
}

// TestFanoutSingleSinkDirect: one sink gets a consumer of its own and
// sees the whole counted stream.
func TestFanoutSingleSinkDirect(t *testing.T) {
	s := &orderSink{}
	count, err := FanoutTimed(genEvents(100), &FanoutStats{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 || len(s.pcs) != 100 {
		t.Fatalf("count=%d seen=%d, want 100/100", count, len(s.pcs))
	}
}

func TestFanoutNoSinks(t *testing.T) {
	count, err := FanoutTimed(genEvents(50), &FanoutStats{})
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
}

// TestFanoutNilSinksFiltered: nil entries are skipped, the rest still
// see the full stream.
func TestFanoutNilSinksFiltered(t *testing.T) {
	s := &orderSink{}
	count, err := FanoutTimed(genEvents(10), &FanoutStats{}, nil, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 || len(s.pcs) != 10 {
		t.Fatalf("count=%d seen=%d, want 10/10", count, len(s.pcs))
	}
}

// TestFanoutGenError: the generator's error is returned and consumers
// still drain what was broadcast before it.
func TestFanoutGenError(t *testing.T) {
	boom := errors.New("boom")
	s := &orderSink{}
	_, err := FanoutTimed(func(snk isa.Sink) error {
		for i := 0; i < 10; i++ {
			ev := isa.Event{PC: uint64(i)}
			snk.Event(&ev)
		}
		return boom
	}, &FanoutStats{}, s, &orderSink{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(s.pcs) != 10 {
		t.Fatalf("sink saw %d events, want 10 (flush on error)", len(s.pcs))
	}
}

// TestPoolGoWReportsWorkerLane: every task receives a valid worker id
// and, with one worker, always lane 0 — the span profiler's lane
// contract.
func TestPoolGoWReportsWorkerLane(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPool(workers, nil)
		if p.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), workers)
		}
		lanes := make([]atomic.Int64, workers)
		var bad atomic.Int64
		const tasks = 60
		for i := 0; i < tasks; i++ {
			p.GoW(func(worker int) {
				if worker < 0 || worker >= workers {
					bad.Add(1)
					return
				}
				lanes[worker].Add(1)
			})
		}
		p.Close()
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks saw an out-of-range lane", workers, bad.Load())
		}
		var total int64
		for i := range lanes {
			total += lanes[i].Load()
		}
		if total != tasks {
			t.Fatalf("workers=%d: lanes account for %d tasks, want %d", workers, total, tasks)
		}
	}
}

// TestPoolStatsBlocked: a starved pool reports queue-wait time both in
// aggregate and per worker.
func TestPoolStatsBlocked(t *testing.T) {
	p := NewPool(2, nil)
	p.Go(func() { time.Sleep(20 * time.Millisecond) })
	p.Close()
	st := p.Stats()
	if len(st.WorkerBlocked) != 2 {
		t.Fatalf("WorkerBlocked rows = %d, want 2", len(st.WorkerBlocked))
	}
	// One worker ran the only task; the other spent the pool lifetime
	// parked on the queue, so blocked time must be visible.
	if st.BlockedSeconds <= 0 {
		t.Fatalf("BlockedSeconds = %v, want > 0 for a starved pool", st.BlockedSeconds)
	}
	maxBlocked := 0.0
	for _, b := range st.WorkerBlocked {
		if b > maxBlocked {
			maxBlocked = b
		}
	}
	if maxBlocked < 0.5 {
		t.Fatalf("max worker blocked fraction = %v, want the starved worker near 1", maxBlocked)
	}
}

// TestFanoutTimedStats: the timed fan-out fills delivery and per-sink
// busy time while preserving the complete ordered streams.
func TestFanoutTimedStats(t *testing.T) {
	const n = 3*fanoutBatch + 5 // four batches, each with a slow-sink sleep
	slow := &slowSink{}
	fast := &orderSink{}
	var fs FanoutStats
	count, err := FanoutTimed(genEvents(n), &fs, slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	if count != n || len(slow.pcs) != n || len(fast.pcs) != n {
		t.Fatalf("count=%d slow=%d fast=%d, want %d everywhere", count, len(slow.pcs), len(fast.pcs), n)
	}
	if len(fs.SinkBusyNs) != 2 {
		t.Fatalf("SinkBusyNs rows = %d, want 2", len(fs.SinkBusyNs))
	}
	if fs.SinkBusyNs[0] <= 0 {
		t.Fatalf("slow sink busy = %dns, want > 0", fs.SinkBusyNs[0])
	}
	if fs.SinkBusyNs[0] <= fs.SinkBusyNs[1] {
		t.Fatalf("slow sink (%dns) not slower than fast sink (%dns)", fs.SinkBusyNs[0], fs.SinkBusyNs[1])
	}
	if fs.DeliverNs <= 0 {
		t.Fatalf("DeliverNs = %d, want > 0", fs.DeliverNs)
	}
}

// slowSink sleeps at the start of every batch, so over several
// batches its busy time dominates the fast sink's by construction,
// even when a loaded host deschedules the fast consumer.
type slowSink struct{ pcs []uint64 }

func (s *slowSink) Event(ev *isa.Event) { s.Events(isa.One(ev)) }

func (s *slowSink) Events(evs []isa.Event) {
	time.Sleep(2 * time.Millisecond)
	for i := range evs {
		s.pcs = append(s.pcs, evs[i].PC)
	}
}

// richEvent is event i of a stream in which every field that varies
// with i differs from its neighbours', so a consumer handed a batch
// that was refilled under it sees the wrong event.
func richEvent(i int) isa.Event {
	u := uint64(i)
	ev := isa.Event{PC: u, Word: uint32(u * 2654435761), LoadAddr: u * 8, StoreAddr: ^u}
	ev.AddSrc(isa.IntReg(uint8(u % 31)))
	return ev
}

// genRich streams n rich events through the batched path, in chunks
// that do not divide fanoutBatch so batch seams fall mid-chunk.
func genRich(n int) func(isa.Sink) error {
	return func(s isa.Sink) error {
		chunk := make([]isa.Event, 1000)
		for i := 0; i < n; {
			k := min(len(chunk), n-i)
			for j := range chunk[:k] {
				chunk[j] = richEvent(i + j)
			}
			isa.DeliverBatch(s, chunk[:k])
			i += k
		}
		return nil
	}
}

// checkSink verifies, event for event and without allocating, that it
// sees exactly the genRich stream. pause runs before each batch to set
// the consumer's speed.
type checkSink struct {
	n     int
	pause func()
	err   error
}

func (c *checkSink) Event(ev *isa.Event) { c.Events(isa.One(ev)) }

func (c *checkSink) Events(evs []isa.Event) {
	if c.pause != nil {
		c.pause()
	}
	for i := range evs {
		if c.err == nil && evs[i] != richEvent(c.n) {
			c.err = fmt.Errorf("event %d: got %+v, want %+v", c.n, evs[i], richEvent(c.n))
		}
		c.n++
	}
}

// batchesAllocated runs f and returns how many fan-out batches' worth
// of heap it allocated. Everything else a fan-out allocates is a few
// hundred bytes per consumer or batch, far below one batch, so the
// quotient counts batches.
func batchesAllocated(f func()) uint64 {
	batchBytes := uint64(fanoutBatch) * uint64(reflect.TypeFor[isa.Event]().Size())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / batchBytes
}

// TestFanoutRecyclesBatches: three consumers of different speeds each
// see a stream of many batches event for event while the fan-out
// refills released batches, and no stream length makes it allocate
// more than fanoutDepth+2 of them.
func TestFanoutRecyclesBatches(t *testing.T) {
	for _, batches := range []int{16, 64} {
		n := batches*fanoutBatch + 17
		fast := &checkSink{}
		medium := &checkSink{pause: func() { time.Sleep(50 * time.Microsecond) }}
		slow := &checkSink{pause: func() { time.Sleep(200 * time.Microsecond) }}
		var count uint64
		var err error
		allocs := batchesAllocated(func() {
			count, err = FanoutTimed(genRich(n), &FanoutStats{}, fast, medium, slow)
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != uint64(n) {
			t.Fatalf("%d batches: broadcast %d of %d events", batches, count, n)
		}
		for name, c := range map[string]*checkSink{"fast": fast, "medium": medium, "slow": slow} {
			if c.err != nil {
				t.Fatalf("%d batches: %s consumer: %v", batches, name, c.err)
			}
			if c.n != n {
				t.Fatalf("%d batches: %s consumer saw %d of %d events", batches, name, c.n, n)
			}
		}
		if allocs > fanoutDepth+2 {
			t.Fatalf("%d batches: allocated %d batches, want at most %d", batches, allocs, fanoutDepth+2)
		}
	}
}

// nopSink is a consumer that does nothing.
type nopSink struct{}

func (nopSink) Event(*isa.Event)   {}
func (nopSink) Events([]isa.Event) {}

// BenchmarkFanoutBroadcast times the broadcast alone: a 64-batch stream
// handed over in the emulation core's 4096-event chunks to five no-op
// consumers. B/op is per FanoutTimed call, so it shows the batch recycling.
func BenchmarkFanoutBroadcast(b *testing.B) {
	const n = 64 * fanoutBatch
	chunk := make([]isa.Event, 4096)
	gen := func(s isa.Sink) error {
		for i := 0; i < n; i += len(chunk) {
			isa.DeliverBatch(s, chunk)
		}
		return nil
	}
	sinks := []isa.Sink{nopSink{}, nopSink{}, nopSink{}, nopSink{}, nopSink{}}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := FanoutTimed(gen, &FanoutStats{}, sinks...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}
