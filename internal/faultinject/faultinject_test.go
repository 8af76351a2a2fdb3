package faultinject

import (
	"errors"
	"strings"
	"testing"

	"isacmp/internal/isa"
	"isacmp/internal/simeng"
)

// nopMachine retires nothing and never errors; the wrappers' own
// behaviour is what these tests observe.
type nopMachine struct{ pc uint64 }

func (m *nopMachine) Step(ev *isa.Event) (bool, error) { m.pc += 4; return false, nil }
func (m *nopMachine) StepN(evs []isa.Event) (int, bool, error) {
	m.pc += 4 * uint64(len(evs))
	return len(evs), false, nil
}
func (m *nopMachine) PC() uint64     { return m.pc }
func (m *nopMachine) Arch() isa.Arch { return isa.RV64 }

func stepN(t *testing.T, m simeng.Machine, n int) error {
	t.Helper()
	var ev isa.Event
	for i := 0; i < n; i++ {
		if _, err := m.Step(&ev); err != nil {
			return err
		}
	}
	return nil
}

// TestWrapIsSelective: cells and attempts outside a plan's match get
// the machine back untouched.
func TestWrapIsSelective(t *testing.T) {
	inj := New(7, Plan{Workload: "stream", Target: "RISC-V/GCC 9.2", Kind: Decode, At: 3, FirstAttempts: 2})
	defer inj.Close()
	m := &nopMachine{}
	if got := inj.WrapMachine("lbm", "RISC-V/GCC 9.2", 1, m); got != simeng.Machine(m) {
		t.Error("wrong workload must not be wrapped")
	}
	if got := inj.WrapMachine("stream", "AArch64/GCC 9.2", 1, m); got != simeng.Machine(m) {
		t.Error("wrong target must not be wrapped")
	}
	if got := inj.WrapMachine("stream", "RISC-V/GCC 9.2", 3, m); got != simeng.Machine(m) {
		t.Error("attempt past FirstAttempts must not be wrapped")
	}
	if got := inj.WrapMachine("stream", "RISC-V/GCC 9.2", 2, m); got == simeng.Machine(m) {
		t.Error("matching cell+attempt must be wrapped")
	}
	if got := inj.WrapSink("stream", "RISC-V/GCC 9.2", 1, nil); got != nil {
		t.Error("machine-layer plan must not wrap the sink")
	}
}

// TestDecodeFiresAtChosenRetirement: the fault fires exactly at At and
// classifies as a decode failure.
func TestDecodeFiresAtChosenRetirement(t *testing.T) {
	inj := New(7, Plan{Kind: Decode, At: 3})
	defer inj.Close()
	m := inj.WrapMachine("w", "t", 1, &nopMachine{})
	var ev isa.Event
	for i := 1; i <= 2; i++ {
		if _, err := m.Step(&ev); err != nil {
			t.Fatalf("step %d: unexpected %v", i, err)
		}
	}
	_, err := m.Step(&ev)
	if err == nil {
		t.Fatal("step 3 must fault")
	}
	if got := simeng.Classify(err); !errors.Is(got, simeng.ErrDecode) {
		t.Fatalf("classified as %v, want ErrDecode", got)
	}
}

// TestMemFaultClassifies: the injected access error rides the same
// classification path as a real one.
func TestMemFaultClassifies(t *testing.T) {
	inj := New(7, Plan{Kind: MemFault, At: 1})
	defer inj.Close()
	m := inj.WrapMachine("w", "t", 1, &nopMachine{})
	err := stepN(t, m, 1)
	if err == nil || !errors.Is(simeng.Classify(err), simeng.ErrMemFault) {
		t.Fatalf("err = %v, want mem-fault classification", err)
	}
}

// TestSeededFiringPointIsDeterministic: with At unset the firing point
// is drawn from (seed, cell) and must be identical across injectors
// with the same seed and differ across cells.
func TestSeededFiringPointIsDeterministic(t *testing.T) {
	fire := func(seed uint64, workload, target string) uint64 {
		inj := New(seed, Plan{Kind: Decode})
		defer inj.Close()
		m := inj.WrapMachine(workload, target, 1, &nopMachine{})
		n := uint64(0)
		var ev isa.Event
		for {
			n++
			if _, err := m.Step(&ev); err != nil {
				return n
			}
			if n > 1<<20 {
				t.Fatal("fault never fired")
			}
		}
	}
	a := fire(42, "stream", "RISC-V/GCC 9.2")
	b := fire(42, "stream", "RISC-V/GCC 9.2")
	if a != b {
		t.Fatalf("same seed+cell fired at %d then %d", a, b)
	}
	if a < 1 || a > 4096 {
		t.Fatalf("firing point %d outside [1,4096]", a)
	}
	if c := fire(42, "lbm", "RISC-V/GCC 9.2"); c == a {
		t.Logf("note: distinct cells collided at %d (allowed, just unlikely)", c)
	}
	if d := fire(43, "stream", "RISC-V/GCC 9.2"); d == a {
		t.Logf("note: distinct seeds collided at %d (allowed, just unlikely)", d)
	}
}

// TestSinkPanicFiresAtEvent: the wrapped sink panics at the chosen
// event count and forwards everything before it, wherever the firing
// event falls in a batch.
func TestSinkPanicFiresAtEvent(t *testing.T) {
	const at = 5
	for _, c := range []struct {
		name    string
		batches []int // the lengths of the batches delivered, in order
	}{
		{"one-event batches", []int{1, 1, 1, 1, 1, 1, 1}},
		{"first in a batch", []int{4, 6}},
		{"middle of a batch", []int{3, 5, 2}},
		{"last in a batch", []int{2, 3, 5}},
	} {
		inj := New(7, Plan{Kind: SinkPanic, At: at})
		seen := 0
		s := inj.WrapSink("w", "t", 1, isa.SinkFunc(func(*isa.Event) { seen++ }))
		err := simeng.Guard(func() error {
			var evs [10]isa.Event
			rest := evs[:]
			for _, n := range c.batches {
				s.Events(rest[:n])
				rest = rest[n:]
			}
			return nil
		})
		inj.Close()
		if !errors.Is(simeng.Classify(err), simeng.ErrPanic) {
			t.Fatalf("%s: err = %v, want panic classification", c.name, err)
		}
		if !strings.Contains(err.Error(), "injected sink panic at event 5") {
			t.Fatalf("%s: err = %v, want the firing event's count", c.name, err)
		}
		if seen != at-1 {
			t.Fatalf("%s: inner sink saw %d events, want %d", c.name, seen, at-1)
		}
	}
}

// TestHangReleasedByClose: a hung Step unblocks when the injector is
// closed, so harness teardown never leaks the abandoned goroutine.
func TestHangReleasedByClose(t *testing.T) {
	inj := New(7, Plan{Kind: Hang, At: 1})
	m := inj.WrapMachine("w", "t", 1, &nopMachine{})
	done := make(chan error, 1)
	go func() {
		var ev isa.Event
		_, err := m.Step(&ev)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("hang returned early: %v", err)
	default:
	}
	inj.Close()
	if err := <-done; err == nil {
		t.Fatal("released hang must report an error")
	}
}

// TestKindString pins the tags tests and messages use.
func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Decode: "decode", MemFault: "mem-fault", Panic: "panic",
		SinkPanic: "sink-panic", Slow: "slow", Hang: "hang",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %s, want %s", int(k), k.String(), s)
		}
	}
}
