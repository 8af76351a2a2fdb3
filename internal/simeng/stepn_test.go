package simeng

import (
	"errors"
	"fmt"
	"testing"

	"isacmp/internal/isa"
)

// scriptMachine is a Machine that retires a fixed number of events
// with recognisable payloads, optionally failing at a given
// retirement. It lets the run-loop tests control exactly where
// done/error fall relative to batch boundaries.
type scriptMachine struct {
	total    uint64 // events before the done step
	failAt   uint64 // fail when retiring event #failAt (1-based); 0 disables
	failErr  error
	retired  uint64
	stepNs   int // number of StepN calls observed
	exited   bool
	exitCode int64
}

func (s *scriptMachine) fill(ev *isa.Event) {
	*ev = isa.Event{PC: 0x1000 + 4*s.retired, Word: uint32(s.retired)}
	ev.AddDst(isa.IntReg(uint8(s.retired%30) + 1))
}

func (s *scriptMachine) Step(ev *isa.Event) (bool, error) {
	if s.retired >= s.total {
		s.exited = true
		return true, nil
	}
	if s.failAt != 0 && s.retired+1 == s.failAt {
		return false, s.failErr
	}
	s.fill(ev)
	s.retired++
	return false, nil
}

func (s *scriptMachine) StepN(evs []isa.Event) (n int, done bool, err error) {
	s.stepNs++
	for n < len(evs) {
		done, err = s.Step(&evs[n])
		if done || err != nil {
			return n, done, err
		}
		n++
	}
	return n, false, nil
}

func (s *scriptMachine) PC() uint64      { return 0x1000 + 4*s.retired }
func (s *scriptMachine) Arch() isa.Arch  { return isa.RV64 }
func (s *scriptMachine) Exited() bool    { return s.exited }
func (s *scriptMachine) ExitCode() int64 { return s.exitCode }

// oneStep is a Machine whose StepN retires one instruction, through
// the wrapped machine's Step, so the run loop hands each event to the
// sink on its own.
type oneStep struct{ Machine }

func (o oneStep) StepN(evs []isa.Event) (int, bool, error) {
	if done, err := o.Step(&evs[0]); done || err != nil {
		return 0, done, err
	}
	return 1, false, nil
}

// collectSink copies every event — the documented sink contract.
type collectSink struct{ evs []isa.Event }

func (c *collectSink) Event(ev *isa.Event)    { c.Events(isa.One(ev)) }
func (c *collectSink) Events(evs []isa.Event) { c.evs = append(c.evs, evs...) }

// TestStepNMatchesUnbatched runs the same script one Step per batch
// and in whole batches, and demands identical event streams and stats,
// for totals straddling the batch size.
func TestStepNMatchesUnbatched(t *testing.T) {
	for _, total := range []uint64{0, 1, 7, stepBatch - 1, stepBatch, stepBatch + 1, 3*stepBatch + 17} {
		var ref, bat collectSink
		refStats, err := (&EmulationCore{}).Run(oneStep{&scriptMachine{total: total}}, &ref)
		if err != nil {
			t.Fatal(err)
		}
		sm := &scriptMachine{total: total}
		batStats, err := (&EmulationCore{}).Run(sm, &bat)
		if err != nil {
			t.Fatal(err)
		}
		if refStats != batStats {
			t.Fatalf("total %d: stats %+v != %+v", total, batStats, refStats)
		}
		if want := int(total/stepBatch) + 1; sm.stepNs != want {
			t.Fatalf("total %d: batched run called StepN %d times, want %d", total, sm.stepNs, want)
		}
		if len(ref.evs) != len(bat.evs) {
			t.Fatalf("total %d: %d events batched, %d unbatched", total, len(bat.evs), len(ref.evs))
		}
		for i := range ref.evs {
			if ref.evs[i] != bat.evs[i] {
				t.Fatalf("total %d: event %d differs: %+v != %+v", total, i, bat.evs[i], ref.evs[i])
			}
		}
	}
}

// TestStepNBudgetExact pins the instruction-budget semantics of the
// batched loop: the run fails with ErrBudget, Retired equals the
// budget exactly, and exactly budget events were delivered — even
// when the budget is not a multiple of the batch size.
func TestStepNBudgetExact(t *testing.T) {
	for _, budget := range []uint64{1, 50, stepBatch, stepBatch + 1, 2*stepBatch - 3} {
		var sink collectSink
		c := &EmulationCore{MaxInstructions: budget}
		_, err := c.Run(&scriptMachine{total: 10 * stepBatch}, &sink)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: err = %v, want ErrBudget", budget, err)
		}
		var se *SimError
		if !errors.As(err, &se) || se.Retired != budget {
			t.Fatalf("budget %d: retired = %d, want exactly the budget", budget, se.Retired)
		}
		if uint64(len(sink.evs)) != budget {
			t.Fatalf("budget %d: %d events delivered", budget, len(sink.evs))
		}
	}
}

// TestStepNErrorMidBatch pins the fault semantics of the batched
// loop: events retired before the failure are all delivered, Retired
// counts exactly them, and the cause survives classification.
func TestStepNErrorMidBatch(t *testing.T) {
	cause := fmt.Errorf("scripted fault")
	for _, failAt := range []uint64{1, 100, stepBatch, stepBatch + 5} {
		var sink collectSink
		_, err := (&EmulationCore{}).Run(&scriptMachine{total: 10 * stepBatch, failAt: failAt, failErr: cause}, &sink)
		if !errors.Is(err, cause) {
			t.Fatalf("failAt %d: err = %v, want wrapped cause", failAt, err)
		}
		var se *SimError
		if !errors.As(err, &se) || se.Retired != failAt-1 {
			t.Fatalf("failAt %d: retired = %d, want %d", failAt, se.Retired, failAt-1)
		}
		if uint64(len(sink.evs)) != failAt-1 {
			t.Fatalf("failAt %d: %d events delivered, want %d", failAt, len(sink.evs), failAt-1)
		}
	}
}

// TestEventInvalidAfterReturn enforces the documented sink lifetime
// contract: the event a sink receives is invalid the moment the
// callback returns, because the engine reuses one batch buffer for
// the whole run. A sink that retains the pointer observes the payload
// being overwritten by a later batch; a correct sink copies the
// struct. Run under -race (the Makefile race/differential targets do)
// this also certifies the reuse itself is single-goroutine clean.
func TestEventInvalidAfterReturn(t *testing.T) {
	var retained *isa.Event
	var firstCopy isa.Event
	sink := isa.SinkFunc(func(ev *isa.Event) {
		if retained == nil {
			retained = ev // contract violation, deliberately
			firstCopy = *ev
		}
	})
	if _, err := (&EmulationCore{}).Run(&scriptMachine{total: 3 * stepBatch}, sink); err != nil {
		t.Fatal(err)
	}
	if retained == nil {
		t.Fatal("sink never ran")
	}
	if *retained == firstCopy {
		t.Fatal("retained event still holds its original payload; buffer reuse contract not exercised")
	}
}

// TestStepNSteadyStateZeroAlloc proves the batched loop is
// allocation-free in steady state: once the core's batch buffer
// exists, driving whole batches through StepN and a batch-consuming
// sink allocates nothing.
func TestStepNSteadyStateZeroAlloc(t *testing.T) {
	sm := &scriptMachine{total: 1 << 40}
	c := &EmulationCore{}
	var consumed uint64
	sink := &countEvents{n: &consumed}
	// Warm up: first run of the loop allocates the batch buffer.
	c.batch = make([]isa.Event, stepBatch)
	buf := c.batch
	allocs := testing.AllocsPerRun(100, func() {
		n, done, err := sm.StepN(buf)
		if done || err != nil {
			t.Fatal("script ended early")
		}
		sink.Events(buf[:n])
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch cycle allocates %v times per run", allocs)
	}
}

type countEvents struct{ n *uint64 }

func (c *countEvents) Event(*isa.Event)       { *c.n++ }
func (c *countEvents) Events(evs []isa.Event) { *c.n += uint64(len(evs)) }
