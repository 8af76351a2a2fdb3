package simeng

import (
	"context"
	"errors"
	"testing"
	"time"

	"isacmp/internal/isa"
)

// TestEmulationCoreBudgetTyped: the MaxInstructions watchdog reports
// an ErrBudget-kind SimError carrying PC and retired count.
func TestEmulationCoreBudgetTyped(t *testing.T) {
	m := rvLoop(t, 1_000_000)
	c := &EmulationCore{MaxInstructions: 100}
	_, err := c.Run(m, nil)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget kind", err)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err %T is not a SimError", err)
	}
	if se.Retired != 100 {
		t.Fatalf("retired = %d, want 100", se.Retired)
	}
	if se.PC == 0 {
		t.Fatal("PC must be captured")
	}
}

// TestEmulationCoreDeadline: an expired context reaps a long-running
// machine with an ErrDeadline-kind error instead of spinning forever.
func TestEmulationCoreDeadline(t *testing.T) {
	m := rvLoop(t, 1<<40) // effectively infinite at test speeds
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	c := &EmulationCore{Ctx: ctx}
	start := time.Now()
	_, err := c.Run(m, nil)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline kind", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline reap took %v", d)
	}
	var se *SimError
	if !errors.As(err, &se) || se.Retired == 0 {
		t.Fatalf("deadline error must carry progress: %v", err)
	}
}

// TestEmulationCoreDeadlineNoFalsePositive: a context with plenty of
// headroom does not perturb a normal run.
func TestEmulationCoreDeadlineNoFalsePositive(t *testing.T) {
	m := rvLoop(t, 10_000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stats, err := (&EmulationCore{Ctx: ctx}).Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instructions == 0 {
		t.Fatal("no instructions retired")
	}
}

// TestEmulationCoreSinkPanicRecovered: a panicking analysis sink is
// converted to an ErrPanic-kind error, not a process death. The error
// reports the machine's state when delivery stopped: the program's
// 2,004 instructions retire in one batch, which is counted before a
// per-event sink sees its 50th event, and the PC is the machine's.
func TestEmulationCoreSinkPanicRecovered(t *testing.T) {
	m := rvLoop(t, 1000)
	n := 0
	sink := isa.SinkFunc(func(*isa.Event) {
		n++
		if n == 50 {
			panic("sink exploded")
		}
	})
	_, err := (&EmulationCore{}).Run(m, sink)
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic kind", err)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err %T is not a SimError", err)
	}
	if se.Retired != 2004 || se.PC != m.PC() {
		t.Fatalf("retired = %d at pc %#x, want the batch end 2004 at the machine's pc %#x", se.Retired, se.PC, m.PC())
	}
}
