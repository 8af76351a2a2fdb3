package isacmp

import (
	"fmt"
	"hash/fnv"
	"testing"

	"isacmp/internal/ir"
	"isacmp/internal/simeng"
)

// traceDigest hashes the architectural content of an event stream:
// program counter, instruction word, register reads/writes, memory
// accesses and branch outcomes. Two runs retiring the same
// architectural trace produce the same digest.
type traceDigest struct {
	h uint64
	n uint64
}

func newTraceDigest() *traceDigest { return &traceDigest{h: fnv.New64a().Sum64()} }

func (d *traceDigest) mix(v uint64) {
	// FNV-1a over the 8 bytes of v.
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		d.h ^= (v >> (8 * i)) & 0xff
		d.h *= prime
	}
}

func (d *traceDigest) Event(ev *Event) {
	d.n++
	d.mix(ev.PC)
	d.mix(uint64(ev.Word))
	for i := uint8(0); i < ev.NSrcs; i++ {
		d.mix(uint64(ev.Srcs[i]))
	}
	for i := uint8(0); i < ev.NDsts; i++ {
		d.mix(uint64(ev.Dsts[i]))
	}
	d.mixAccess(ev.LoadAddr, ev.LoadSize)
	d.mixAccess(ev.Load2Addr, ev.Load2Size)
	d.mixAccess(ev.StoreAddr, ev.StoreSize)
	b := uint64(0)
	if ev.Branch {
		b = 1
		if ev.Taken {
			b = 3
		}
	}
	d.mix(b)
}

// mixAccess hashes a memory access: its size, and its address only
// when the size is set. A reused event keeps the address of an earlier
// access in a slot whose size is 0, and that stale value is no part of
// the trace.
func (d *traceDigest) mixAccess(addr uint64, size uint8) {
	d.mix(uint64(size))
	if size != 0 {
		d.mix(addr)
	}
}

// finalArrays runs bin on core and reads back every program array from
// the machine's memory after the run.
func finalArrays(t *testing.T, bin *Binary, prog *Program, core *simeng.EmulationCore, extraSinks ...Sink) (map[string][]uint64, *traceDigest, Stats) {
	t.Helper()
	mach, m, err := bin.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	dig := newTraceDigest()
	sinks := append([]Sink{dig}, extraSinks...)
	var sink Sink = SinkFunc(func(ev *Event) {
		for _, s := range sinks {
			s.Event(ev)
		}
	})
	stats, err := core.Run(mach, sink)
	if err != nil {
		t.Fatal(err)
	}
	arrays := make(map[string][]uint64, len(prog.Arrays))
	for _, arr := range prog.Arrays {
		base := bin.ArrayBase(arr.Name)
		vals := make([]uint64, arr.Len)
		for i := 0; i < arr.Len; i++ {
			bits, err := m.Read64(base + uint64(i)*8)
			if err != nil {
				t.Fatal(err)
			}
			vals[i] = bits
		}
		arrays[arr.Name] = vals
	}
	return arrays, dig, stats
}

// TestDifferentialCores is the cross-core differential harness: for
// every workload and target, the emulation run, the run observed by
// the in-order timing model and the run observed by the out-of-order
// model must retire the identical architectural trace (same digest,
// same instruction count) and leave identical final array memory —
// the timing models are trace-driven sinks and must never perturb
// architectural state.
func TestDifferentialCores(t *testing.T) {
	for _, name := range Workloads() {
		prog := Workload(name, Tiny)
		for _, tgt := range Targets() {
			t.Run(fmt.Sprintf("%s/%s", name, tgt), func(t *testing.T) {
				bin, err := Compile(prog, tgt)
				if err != nil {
					t.Fatal(err)
				}

				emu := &simeng.EmulationCore{}
				emuArr, emuDig, emuStats := finalArrays(t, bin, prog, emu)

				inModel := NewInOrderModel()
				inArr, inDig, inStats := finalArrays(t, bin, prog, emu, inModel)

				oooModel := NewOoOModel()
				oooArr, oooDig, oooStats := finalArrays(t, bin, prog, emu, oooModel)

				if emuDig.h != inDig.h || emuDig.h != oooDig.h {
					t.Fatalf("trace digests differ: emu %#x, inorder %#x, ooo %#x",
						emuDig.h, inDig.h, oooDig.h)
				}
				if emuDig.n != inDig.n || emuDig.n != oooDig.n {
					t.Fatalf("trace lengths differ: emu %d, inorder %d, ooo %d",
						emuDig.n, inDig.n, oooDig.n)
				}
				if emuStats.Instructions != inStats.Instructions || emuStats.Instructions != oooStats.Instructions {
					t.Fatalf("instruction counts differ: emu %d, inorder %d, ooo %d",
						emuStats.Instructions, inStats.Instructions, oooStats.Instructions)
				}
				for arr := range emuArr {
					for i := range emuArr[arr] {
						if emuArr[arr][i] != inArr[arr][i] || emuArr[arr][i] != oooArr[arr][i] {
							t.Fatalf("%s[%d] differs across cores", arr, i)
						}
					}
				}
				// The timing models consumed the trace: they must account
				// every retired instruction.
				if inModel.Stats().Instructions != emuStats.Instructions {
					t.Fatalf("inorder model counted %d instructions, trace retired %d",
						inModel.Stats().Instructions, emuStats.Instructions)
				}
				if oooModel.Stats().Instructions != emuStats.Instructions {
					t.Fatalf("ooo model counted %d instructions, trace retired %d",
						oooModel.Stats().Instructions, emuStats.Instructions)
				}
			})
		}
	}
}

// TestDifferentialStepLoop: the batched StepN loop and the per-Step
// reference loop must retire the identical architectural trace and
// leave identical memory. A batch reuses each event slot for a later
// instruction while the per-Step loop reuses one event for all of them,
// so the two differ in the stale addresses their events keep; the
// digest ignores an address whose size is 0 and must agree.
func TestDifferentialStepLoop(t *testing.T) {
	prog := Workload("stream", Tiny)
	for _, tgt := range Targets() {
		t.Run(tgt.String(), func(t *testing.T) {
			bin, err := Compile(prog, tgt)
			if err != nil {
				t.Fatal(err)
			}
			batchArr, batchDig, _ := finalArrays(t, bin, prog, &simeng.EmulationCore{})
			stepArr, stepDig, _ := finalArrays(t, bin, prog, &simeng.EmulationCore{StepLoop: true})
			if batchDig.h != stepDig.h || batchDig.n != stepDig.n {
				t.Fatalf("trace digests differ: batched %#x over %d events, per-Step %#x over %d",
					batchDig.h, batchDig.n, stepDig.h, stepDig.n)
			}
			for arr := range batchArr {
				for i := range batchArr[arr] {
					if batchArr[arr][i] != stepArr[arr][i] {
						t.Fatalf("%s[%d] differs between batched and per-Step runs", arr, i)
					}
				}
			}
		})
	}
}

// TestDifferentialISAs: both instruction sets, both compiler flavours,
// must compute the same results — every final array bit-identical
// across all four targets (each already verified against the host
// reference interpreter, which pins the expected values).
func TestDifferentialISAs(t *testing.T) {
	for _, name := range Workloads() {
		prog := Workload(name, Tiny)
		t.Run(name, func(t *testing.T) {
			ref := ir.NewInterp(prog)
			if err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			var first map[string][]uint64
			var firstTgt Target
			for _, tgt := range Targets() {
				bin, err := Compile(prog, tgt)
				if err != nil {
					t.Fatal(err)
				}
				if err := bin.Verify(); err != nil {
					t.Fatal(err)
				}
				arrays, _, _ := finalArrays(t, bin, prog, &simeng.EmulationCore{})
				if first == nil {
					first, firstTgt = arrays, tgt
					continue
				}
				for arr := range first {
					for i := range first[arr] {
						if first[arr][i] != arrays[arr][i] {
							t.Fatalf("%s[%d]: %s and %s disagree", arr, i, firstTgt, tgt)
						}
					}
				}
			}
		})
	}
}
