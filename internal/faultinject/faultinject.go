// Package faultinject is the deterministic fault-injection harness for
// the resilience layer: a seeded injector that wraps a cell's machine
// or event sink and fires a chosen fault — decode error, memory fault,
// panic, sink panic, artificial slowness or an outright hang — at a
// chosen retirement count. It plugs into report.Experiment via the
// WrapMachine/WrapSink hooks, so the engine under test is exactly the
// production engine; nothing in the simulator knows it is being
// injected.
//
// Determinism contract: with the same seed and plans, every fault
// fires at the same retirement count on every run, so failure-path
// tests are as reproducible as the golden tests. A plan whose At is
// zero draws its firing point from the seed and the cell identity
// (splitmix64), which is how "seeded" randomised campaigns stay
// replayable.
package faultinject

import (
	"fmt"
	"log/slog"
	"time"

	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/simeng"
)

// Kind selects which fault a plan injects.
type Kind int

const (
	// Decode returns a decode-classified error from Step.
	Decode Kind = iota
	// MemFault returns a *mem.AccessError from Step.
	MemFault
	// Panic panics inside Step (exec-layer panic).
	Panic
	// SinkPanic panics inside the event sink (analysis-layer panic).
	SinkPanic
	// Slow sleeps SlowFor before every Step from the firing point on —
	// a cell that still retires but blows its wall-clock deadline.
	Slow
	// Hang blocks Step until the injector is Closed — a cell the
	// in-core context poll can never reach, only the scheduler's
	// watchdog.
	Hang
)

// String returns the plan-kind tag used in test names and messages.
func (k Kind) String() string {
	switch k {
	case Decode:
		return "decode"
	case MemFault:
		return "mem-fault"
	case Panic:
		return "panic"
	case SinkPanic:
		return "sink-panic"
	case Slow:
		return "slow"
	case Hang:
		return "hang"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Plan describes one fault to inject.
type Plan struct {
	// Workload and Target select the matrix cell; an empty string
	// matches every value (so {Kind: Panic} faults the whole matrix).
	Workload string
	Target   string
	// Kind is the fault to fire.
	Kind Kind
	// At is the 1-based retirement count (event count for SinkPanic)
	// at which the fault fires. 0 draws a deterministic point in
	// [1, 4096] from the injector seed and the cell identity.
	At uint64
	// FirstAttempts, when positive, arms the fault only for attempts
	// 1..FirstAttempts — the retry-success scenario: attempt
	// FirstAttempts+1 runs clean. 0 arms every attempt.
	FirstAttempts int
	// SlowFor is the per-instruction sleep of a Slow plan.
	SlowFor time.Duration
}

// Injector holds a seed and a set of plans and implements the
// report.Experiment WrapMachine/WrapSink hook signatures.
type Injector struct {
	seed  uint64
	plans []Plan
	stop  chan struct{}

	// Log, when set, records each armed wrap and each fault firing, so
	// an injected campaign's log stream shows exactly which cell was
	// sabotaged where. Set before handing the injector to an
	// experiment.
	Log *slog.Logger
}

// New builds an injector. Close it when done if any plan is a Hang.
func New(seed uint64, plans ...Plan) *Injector {
	return &Injector{seed: seed, plans: plans, stop: make(chan struct{})}
}

// Close releases every hung Step so abandoned watchdog goroutines can
// exit; harnesses call it at teardown (goroutine-leak checks depend on
// it).
func (in *Injector) Close() { close(in.stop) }

// match finds the first armed plan of the given kinds for a cell.
func (in *Injector) match(workload, target string, attempt int, kinds ...Kind) (Plan, bool) {
	for _, p := range in.plans {
		if p.Workload != "" && p.Workload != workload {
			continue
		}
		if p.Target != "" && p.Target != target {
			continue
		}
		if p.FirstAttempts > 0 && attempt > p.FirstAttempts {
			continue
		}
		for _, k := range kinds {
			if p.Kind == k {
				return p, true
			}
		}
	}
	return Plan{}, false
}

// firingPoint resolves a plan's At, drawing from the seed when unset.
func (in *Injector) firingPoint(p Plan, workload, target string) uint64 {
	if p.At > 0 {
		return p.At
	}
	h := in.seed
	for _, s := range []string{workload, target} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
	}
	return splitmix64(h)%4096 + 1
}

// splitmix64 is the standard 64-bit finalizer; good enough to spread
// cell identities over firing points and fully deterministic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WrapMachine implements the report.Experiment hook: it wraps m when a
// machine-layer plan (Decode, MemFault, Panic, Slow, Hang) is armed
// for this cell and attempt, and returns m unchanged otherwise.
func (in *Injector) WrapMachine(workload, target string, attempt int, m simeng.Machine) simeng.Machine {
	p, ok := in.match(workload, target, attempt, Decode, MemFault, Panic, Slow, Hang)
	if !ok {
		return m
	}
	at := in.firingPoint(p, workload, target)
	if in.Log != nil {
		in.Log.Debug("faultinject: machine fault armed",
			"workload", workload, "target", target, "attempt", attempt,
			"kind", p.Kind.String(), "at", at)
	}
	return &faultMachine{
		Machine: m,
		plan:    p,
		at:      at,
		stop:    in.stop,
		log:     in.Log,
	}
}

// WrapSink implements the report.Experiment hook: it wraps s when a
// SinkPanic plan is armed for this cell and attempt. The inner sink
// may be nil (a run without analyses still counts events).
func (in *Injector) WrapSink(workload, target string, attempt int, s isa.Sink) isa.Sink {
	p, ok := in.match(workload, target, attempt, SinkPanic)
	if !ok {
		return s
	}
	at := in.firingPoint(p, workload, target)
	if in.Log != nil {
		in.Log.Debug("faultinject: sink fault armed",
			"workload", workload, "target", target, "attempt", attempt,
			"kind", p.Kind.String(), "at", at)
	}
	return &faultSink{inner: s, at: at}
}

// DecodeError is the injected stand-in for the architectures' decode
// errors; the DecodeFault marker makes simeng classify it as
// ErrDecode, exactly like a real unallocated encoding.
type DecodeError struct {
	PC uint64
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("faultinject: injected decode fault at pc=%#x", e.PC)
}

// DecodeFault marks the error as a decode failure for simeng.Classify.
func (e *DecodeError) DecodeFault() {}

// faultMachine interposes on Step and fires its plan at the chosen
// retirement count. Everything before (and, for non-fatal kinds,
// after) the firing point is delegated untouched.
type faultMachine struct {
	simeng.Machine
	plan    Plan
	at      uint64
	stop    chan struct{}
	log     *slog.Logger
	retired uint64
}

// fired logs the moment a fatal fault fires; Slow plans fire on every
// Step from the firing point on, so only the first is logged.
func (f *faultMachine) fired() {
	if f.log != nil && f.retired == f.at {
		f.log.Debug("faultinject: fault firing",
			"kind", f.plan.Kind.String(), "retired", f.retired)
	}
}

func (f *faultMachine) Step(ev *isa.Event) (bool, error) {
	f.retired++
	if f.retired >= f.at {
		f.fired()
		switch f.plan.Kind {
		case Decode:
			return false, &DecodeError{PC: f.PC()}
		case MemFault:
			return false, &mem.AccessError{Addr: f.PC(), Size: 8, Op: "injected read"}
		case Panic:
			panic(fmt.Sprintf("faultinject: injected panic at retirement %d", f.retired))
		case Slow:
			if f.plan.SlowFor > 0 {
				time.Sleep(f.plan.SlowFor)
			}
		case Hang:
			<-f.stop
			return false, fmt.Errorf("faultinject: hang released at retirement %d", f.retired)
		}
	}
	return f.Machine.Step(ev)
}

// StepN implements simeng.Machine's batch step by looping the
// interposed Step, so injected faults fire at exactly the same
// retirement count whatever batch length the run loop asks for — the
// property the fault-surfacing equivalence tests pin.
func (f *faultMachine) StepN(evs []isa.Event) (n int, done bool, err error) {
	for n < len(evs) {
		done, err = f.Step(&evs[n])
		if done || err != nil {
			return n, done, err
		}
		n++
	}
	return n, false, nil
}

// faultSink interposes on the event stream and panics at the chosen
// event count.
type faultSink struct {
	inner isa.Sink
	at    uint64
	n     uint64
}

func (f *faultSink) Event(ev *isa.Event) { f.Events(isa.One(ev)) }

// Events forwards the batch. A batch that holds the firing event is
// forwarded up to that event, and then the sink panics.
func (f *faultSink) Events(evs []isa.Event) {
	fire := f.n < f.at && f.at-f.n <= uint64(len(evs))
	if fire {
		evs = evs[:f.at-f.n-1]
	}
	f.n += uint64(len(evs))
	if f.inner != nil {
		f.inner.Events(evs)
	}
	if fire {
		f.n++
		panic(fmt.Sprintf("faultinject: injected sink panic at event %d", f.n))
	}
}
