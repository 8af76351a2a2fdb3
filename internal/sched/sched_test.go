package sched

import (
	"errors"
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

func (o *orderSink) Event(ev *isa.Event) { o.pcs = append(o.pcs, ev.PC) }

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
	count, err := Fanout(genEvents(n), sinks[0], sinks[1], sinks[2])
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

// TestFanoutSingleSinkDirect: one sink bypasses the fan-out machinery
// but still counts events.
func TestFanoutSingleSinkDirect(t *testing.T) {
	s := &orderSink{}
	count, err := Fanout(genEvents(100), s)
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 || len(s.pcs) != 100 {
		t.Fatalf("count=%d seen=%d, want 100/100", count, len(s.pcs))
	}
}

func TestFanoutNoSinks(t *testing.T) {
	count, err := Fanout(genEvents(50))
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
	count, err := Fanout(genEvents(10), nil, s, nil)
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
	_, err := Fanout(func(snk isa.Sink) error {
		for i := 0; i < 10; i++ {
			ev := isa.Event{PC: uint64(i)}
			snk.Event(&ev)
		}
		return boom
	}, s, &orderSink{})
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

// TestFanoutTimedNilStats: a nil stats pointer must behave exactly
// like the untimed path.
func TestFanoutTimedNilStats(t *testing.T) {
	s := &orderSink{}
	count, err := FanoutTimed(genEvents(100), nil, s, &orderSink{})
	if err != nil || count != 100 || len(s.pcs) != 100 {
		t.Fatalf("count=%d err=%v seen=%d", count, err, len(s.pcs))
	}
}

// slowSink sleeps at the start of every batch, so over several
// batches its busy time dominates the fast sink's by construction,
// even when a loaded host deschedules the fast consumer.
type slowSink struct{ pcs []uint64 }

func (s *slowSink) Event(ev *isa.Event) {
	if len(s.pcs)%fanoutBatch == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	s.pcs = append(s.pcs, ev.PC)
}
