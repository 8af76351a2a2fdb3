package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"isacmp/internal/isa"
	"isacmp/internal/simeng"
)

// TestPoolDrainsOnCancel models the fail-fast shutdown path: the first
// failing cell cancels a shared context and every remaining cell must
// still be dispatched (observing the cancel and returning early) so
// Close never deadlocks on abandoned tasks. The cells after the
// failing one wait for the cancel before they check, so whichever way
// the workers are scheduled, at least those n-4 cells observe it.
func TestPoolDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPool(4, nil)
	const n = 64
	var ran, cancelled atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		p.Go(func() {
			if i > 3 {
				<-ctx.Done()
			}
			if ctx.Err() != nil {
				cancelled.Add(1)
				return
			}
			ran.Add(1)
			if i == 3 {
				cancel() // the "first failure"
			}
		})
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain after cancel")
	}
	if got := ran.Load() + cancelled.Load(); got != n {
		t.Fatalf("dispatched %d of %d tasks", got, n)
	}
	if got := cancelled.Load(); got < n-4 {
		t.Fatalf("%d of %d tasks observed the cancellation, want at least %d", got, n, n-4)
	}
}

// TestPoolContinuesPastErrors is the continue-on-error path: failing
// cells record their error and the rest of the matrix still runs.
func TestPoolContinuesPastErrors(t *testing.T) {
	p := NewPool(3, nil)
	const n = 30
	errs := make([]error, n)
	var ok atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		p.Go(func() {
			if i%5 == 0 {
				errs[i] = fmt.Errorf("cell %d failed", i)
				return
			}
			ok.Add(1)
		})
	}
	p.Close()
	var failed int
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	if failed != n/5 || ok.Load() != int64(n-n/5) {
		t.Fatalf("failed=%d ok=%d, want %d/%d", failed, ok.Load(), n/5, n-n/5)
	}
}

// TestPoolPanicBackstopDrains: a panicking task must not take down its
// worker, stall Close, or suppress the remaining tasks.
func TestPoolPanicBackstopDrains(t *testing.T) {
	p := NewPool(2, nil)
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		p.Go(func() {
			if i == 2 {
				panic("injected: worker down")
			}
			ran.Add(1)
		})
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after a task panicked")
	}
	if ran.Load() != 19 {
		t.Fatalf("ran %d of 19 healthy tasks", ran.Load())
	}
	n, first := p.Panics()
	if n != 1 || !strings.Contains(first, "injected: worker down") {
		t.Fatalf("Panics() = %d, %q", n, first)
	}
}

// TestPoolNoGoroutineLeak closes pools across both clean and
// cancelled shutdowns and checks the goroutine count returns to its
// baseline.
func TestPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		p := NewPool(8, nil)
		for i := 0; i < 40; i++ {
			i := i
			p.Go(func() {
				if ctx.Err() != nil {
					return
				}
				if i == 10 {
					cancel()
				}
			})
		}
		p.Close()
		cancel()
	}
	// Worker goroutines exit asynchronously after Close returns from
	// stopped.Wait, but other runtime goroutines may still be winding
	// down; poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after pool shutdowns", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// panicSink panics on the nth event it sees.
type panicSink struct {
	n, at uint64
}

func (s *panicSink) Events(evs []isa.Event) {
	for i := range evs {
		s.Event(&evs[i])
	}
}

func (s *panicSink) Event(*isa.Event) {
	s.n++
	if s.n == s.at {
		panic("injected: consumer died")
	}
}

// TestFanoutPanickedConsumerDrains: one consumer dying mid-stream must
// not block the generator or the healthy consumers, and its panic must
// surface as an ErrPanic-kind error. The dead consumer still releases
// every batch, so the run stays within the fan-out's batch bound.
func TestFanoutPanickedConsumerDrains(t *testing.T) {
	// Many more batches than the bound, so a dead consumer that kept
	// its batches would either wedge the broadcast or force new ones.
	const n = 8 * (fanoutDepth + 2) * fanoutBatch
	healthy := [2]countOnlySink{}
	dead := &panicSink{at: 100}
	var count uint64
	var err error
	allocs := batchesAllocated(func() {
		count, err = FanoutTimed(genRich(n), &FanoutStats{}, &healthy[0], dead, &healthy[1])
	})
	if count != n {
		t.Fatalf("broadcast %d of %d events", count, n)
	}
	if err == nil || !errors.Is(err, simeng.ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic kind", err)
	}
	for i := range healthy {
		if healthy[i].n != n {
			t.Fatalf("healthy consumer %d saw %d of %d events", i, healthy[i].n, n)
		}
	}
	if allocs > fanoutDepth+2 {
		t.Fatalf("allocated %d batches, want at most %d", allocs, fanoutDepth+2)
	}
}

type countOnlySink struct{ n uint64 }

func (s *countOnlySink) Event(*isa.Event)       { s.n++ }
func (s *countOnlySink) Events(evs []isa.Event) { s.n += uint64(len(evs)) }
