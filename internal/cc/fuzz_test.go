package cc

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/simeng"
)

// TestDifferentialFuzz compiles randomly generated programs for every
// target, runs them on the simulators and demands bit-identical array
// contents against the host interpreter — a whole-stack differential
// test covering the IR, both compilers, both encoders/decoders, both
// executors and the loader.
func TestDifferentialFuzz(t *testing.T) {
	iterations := 150
	if testing.Short() {
		iterations = 25
	}
	for seed := 0; seed < iterations; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		prog := ir.RandomProgram(r)
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid program: %v", seed, err)
		}

		ref := ir.NewInterp(prog)
		if err := ref.Run(); err != nil {
			t.Fatalf("seed %d: interpreter: %v", seed, err)
		}

		for _, tgt := range Targets() {
			c, err := Compile(prog, tgt)
			if err != nil {
				// The compiler has no spilling; register exhaustion on
				// a pathological random program is detected and
				// reported, which is the contract. Anything else is a
				// bug.
				if strings.Contains(err.Error(), "out of") {
					continue
				}
				t.Fatalf("seed %d: %s: compile: %v", seed, tgt, err)
			}
			mach, m, err := c.NewMachine()
			if err != nil {
				t.Fatalf("seed %d: %s: load: %v", seed, tgt, err)
			}
			if _, err := (&simeng.EmulationCore{MaxInstructions: 10_000_000}).Run(mach, nil); err != nil {
				t.Fatalf("seed %d: %s: run: %v", seed, tgt, err)
			}
			for _, arr := range prog.Arrays {
				base := c.ArrayBase[arr.Name]
				for i := 0; i < arr.Len; i++ {
					bits, err := m.Read64(base + uint64(i)*8)
					if err != nil {
						t.Fatal(err)
					}
					if arr.Elem == ir.F64 {
						want := math.Float64bits(ref.ArrF[arr.Name][i])
						if bits != want {
							t.Fatalf("seed %d: %s: %s[%d] = %v (bits %#x), want %v (bits %#x)",
								seed, tgt, arr.Name, i,
								math.Float64frombits(bits), bits,
								ref.ArrF[arr.Name][i], want)
						}
					} else if int64(bits) != ref.ArrI[arr.Name][i] {
						t.Fatalf("seed %d: %s: %s[%d] = %d, want %d",
							seed, tgt, arr.Name, i, int64(bits), ref.ArrI[arr.Name][i])
					}
				}
			}
		}
	}
}

// TestDifferentialFuzzAblations repeats a smaller fuzz run with each
// ablation knob enabled, so the degraded code paths stay correct too.
func TestDifferentialFuzzAblations(t *testing.T) {
	ablations := []struct {
		name string
		opts Options
	}{
		{"no-fma", Options{NoFMA: true}},
		{"no-strength-reduction", Options{NoStrengthReduction: true}},
		{"no-hoisting", Options{NoHoisting: true}},
		{"all-off", Options{NoFMA: true, NoStrengthReduction: true, NoHoisting: true}},
	}
	for _, ab := range ablations {
		t.Run(ab.name, func(t *testing.T) {
			for seed := 1000; seed < 1030; seed++ {
				r := rand.New(rand.NewSource(int64(seed)))
				prog := ir.RandomProgram(r)
				ref := ir.NewInterp(prog)
				ref.NoFMA = ab.opts.NoFMA
				if err := ref.Run(); err != nil {
					t.Fatalf("seed %d: interpreter: %v", seed, err)
				}
				for _, tgt := range Targets() {
					c, err := CompileOpts(prog, tgt, ab.opts)
					if err != nil {
						if strings.Contains(err.Error(), "out of") {
							continue
						}
						t.Fatalf("seed %d: %s: %v", seed, tgt, err)
					}
					mach, m, err := c.NewMachine()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := (&simeng.EmulationCore{MaxInstructions: 10_000_000}).Run(mach, nil); err != nil {
						t.Fatalf("seed %d: %s: run: %v", seed, tgt, err)
					}
					for _, arr := range prog.Arrays {
						base := c.ArrayBase[arr.Name]
						for i := 0; i < arr.Len; i++ {
							bits, _ := m.Read64(base + uint64(i)*8)
							if arr.Elem == ir.F64 {
								if want := math.Float64bits(ref.ArrF[arr.Name][i]); bits != want {
									t.Fatalf("seed %d: %s: %s[%d] mismatch under %s",
										seed, tgt, arr.Name, i, ab.name)
								}
							} else if int64(bits) != ref.ArrI[arr.Name][i] {
								t.Fatalf("seed %d: %s: %s[%d] mismatch under %s",
									seed, tgt, arr.Name, i, ab.name)
							}
						}
					}
				}
			}
		})
	}
}

// TestAblationEffects checks each knob actually changes the generated
// code in the documented direction on a STREAM-like kernel.
func TestAblationEffects(t *testing.T) {
	const n = 1000
	p := ir.NewProgram("abl")
	a := p.Array("a", ir.F64, n)
	b := p.Array("b", ir.F64, n)
	c := p.Array("c", ir.F64, n)
	for i := 0; i < n; i++ {
		b.InitF = append(b.InitF, float64(i))
		c.InitF = append(c.InitF, float64(n-i))
	}
	i := ir.NewVar("i", ir.I64)
	p.Kernel("triad").Add(&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(n),
		Body: []ir.Stmt{
			&ir.Store{Arr: a, Index: ir.V(i),
				Val: ir.AddE(ir.Ld(b, ir.V(i)), ir.MulE(ir.CF(3), ir.Ld(c, ir.V(i))))},
		},
	})

	run := func(tgt Target, opts Options) uint64 {
		t.Helper()
		comp, err := CompileOpts(p, tgt, opts)
		if err != nil {
			t.Fatal(err)
		}
		mach, _, err := comp.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		stats, err := (&simeng.EmulationCore{}).Run(mach, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Instructions
	}

	rv := Target{Arch: isa.RV64, Flavor: GCC12}
	arm := Target{Arch: isa.AArch64, Flavor: GCC12}

	// FMA off adds one instruction per element on both ISAs.
	base := run(rv, Options{})
	nofma := run(rv, Options{NoFMA: true})
	if nofma < base+n-10 {
		t.Errorf("rv64 NoFMA: %d -> %d, expected ~+%d", base, nofma, n)
	}
	baseA := run(arm, Options{})
	nofmaA := run(arm, Options{NoFMA: true})
	if nofmaA < baseA+n-10 {
		t.Errorf("a64 NoFMA: %d -> %d, expected ~+%d", baseA, nofmaA, n)
	}

	// Strength reduction off costs RISC-V two extra instructions per
	// access (slli+add x 3 accesses, minus the removed pointer bumps).
	nosr := run(rv, Options{NoStrengthReduction: true})
	if nosr <= base {
		t.Errorf("rv64 NoStrengthReduction: %d -> %d, expected growth", base, nosr)
	}

	// Hoisting has no effect on this kernel (indexes are plain V(i)),
	// but must not change results or counts for AArch64 either.
	noh := run(arm, Options{NoHoisting: true})
	if noh != baseA {
		t.Errorf("a64 NoHoisting changed plain-index kernel: %d -> %d", baseA, noh)
	}
}
