package workloads

import (
	"math"
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/simeng"
)

func runCompiled(t *testing.T, c *cc.Compiled) (*mem.Memory, simeng.Stats) {
	t.Helper()
	mach, m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := (&simeng.EmulationCore{MaxInstructions: 500_000_000}).Run(mach, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.Target, err)
	}
	return m, stats
}

// verify compiles and runs p on every target and compares every array
// element against the host interpreter, bit for bit.
func verify(t *testing.T, p *ir.Program) map[cc.Target]simeng.Stats {
	t.Helper()
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	out := map[cc.Target]simeng.Stats{}
	for _, tgt := range cc.Targets() {
		c, err := cc.Compile(p, tgt)
		if err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		m, stats := runCompiled(t, c)
		out[tgt] = stats
		for _, arr := range p.Arrays {
			base := c.ArrayBase[arr.Name]
			for i := 0; i < arr.Len; i++ {
				bits, err := m.Read64(base + uint64(i)*8)
				if err != nil {
					t.Fatal(err)
				}
				if arr.Elem == ir.F64 {
					want := math.Float64bits(ref.ArrF[arr.Name][i])
					if bits != want {
						t.Fatalf("%s: %s: %s[%d] = %v, want %v", p.Name, tgt, arr.Name, i,
							math.Float64frombits(bits), math.Float64frombits(want))
					}
				} else if int64(bits) != ref.ArrI[arr.Name][i] {
					t.Fatalf("%s: %s: %s[%d] = %d, want %d", p.Name, tgt, arr.Name, i,
						int64(bits), ref.ArrI[arr.Name][i])
				}
			}
		}
	}
	return out
}

func TestSTREAMVerifies(t *testing.T) {
	p := STREAM(64, 3)
	verify(t, p)
	// And the values must be the analytically expected STREAM state.
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	// After k iterations: c=a+b, b=3c, a=b+3c evolve deterministically
	// from a=1,b=2,c=0. Just check non-degeneracy and uniformity.
	a0 := ref.ArrF["a"][0]
	if a0 == 0 || a0 == 1 {
		t.Fatalf("stream a[0] = %v, expected evolved value", a0)
	}
	for i, av := range ref.ArrF["a"] {
		if av != a0 {
			t.Fatalf("stream a[%d] = %v, want uniform %v", i, av, a0)
		}
	}
}

func TestSTREAMExpectedValues(t *testing.T) {
	// Replay the recurrence on the host.
	p := STREAM(16, 5)
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	a, b, c := 1.0, 2.0, 0.0
	for k := 0; k < 5; k++ {
		c = a
		b = 3 * c
		c = a + b
		a = b + 3*c
	}
	if ref.ArrF["a"][7] != a || ref.ArrF["b"][7] != b || ref.ArrF["c"][7] != c {
		t.Fatalf("stream state = %v/%v/%v, want %v/%v/%v",
			ref.ArrF["a"][7], ref.ArrF["b"][7], ref.ArrF["c"][7], a, b, c)
	}
}

func TestLBMVerifies(t *testing.T) {
	p := LBM(8, 8, 2)
	verify(t, p)
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	// Average velocities must be populated, finite and positive.
	for i, u := range ref.ArrF["av_vels"] {
		if !(u > 0) || math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatalf("av_vels[%d] = %v", i, u)
		}
	}
	// Mass must be approximately conserved (rebound + BGK).
	var mass float64
	for k := 0; k < 9; k++ {
		for _, f := range ref.ArrF[speedName("f", k)] {
			mass += f
		}
	}
	want := 0.1 * 64 // density * cells
	if math.Abs(mass-want) > 0.05*want {
		t.Fatalf("LBM mass = %v, want ~%v", mass, want)
	}
}

func TestMiniBUDEVerifies(t *testing.T) {
	p := MiniBUDE(4, 6, 8)
	verify(t, p)
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for i, e := range ref.ArrF["energies"] {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("energies[%d] = %v", i, e)
		}
		seen[e] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all pose energies identical: %v", ref.ArrF["energies"])
	}
}

func TestCloverLeafVerifies(t *testing.T) {
	p := CloverLeaf(8, 8, 2)
	verify(t, p)
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range ref.ArrF["pressure"] {
		pr := ref.ArrF["pressure"][i]
		ss := ref.ArrF["soundspeed"][i]
		if !(pr > 0) || !(ss > 0) {
			t.Fatalf("cell %d: pressure %v, soundspeed %v", i, pr, ss)
		}
	}
}

func TestMinisweepVerifies(t *testing.T) {
	p := Minisweep(4, 4, 4, 4)
	verify(t, p)
	ref := ir.NewInterp(p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	total := ref.ArrF["result"][0]
	if !(total > 0) || math.IsInf(total, 0) {
		t.Fatalf("sweep checksum = %v", total)
	}
	// Every angular flux must have been written.
	for i, ps := range ref.ArrF["psi"] {
		if ps == 0 {
			t.Fatalf("psi[%d] never written", i)
		}
	}
}

func TestSuiteShapes(t *testing.T) {
	for _, s := range []Scale{Tiny, Small} {
		progs := Suite(s)
		if len(progs) != 5 {
			t.Fatalf("%v: %d programs", s, len(progs))
		}
		names := Names()
		for i, p := range progs {
			if p.Name != names[i] {
				t.Errorf("%v program %d = %q, want %q", s, i, p.Name, names[i])
			}
			if err := p.Validate(); err != nil {
				t.Errorf("%v %s: %v", s, p.Name, err)
			}
		}
	}
	if ByName("stream", Tiny) == nil || ByName("nonesuch", Tiny) != nil {
		t.Error("ByName lookup broken")
	}
}

// TestAllTinyCompile compiles every tiny workload for every target —
// a smoke test that register allocation succeeds everywhere.
func TestAllTinyCompile(t *testing.T) {
	for _, p := range Suite(Tiny) {
		for _, tgt := range cc.Targets() {
			if _, err := cc.Compile(p, tgt); err != nil {
				t.Errorf("%s/%s: %v", p.Name, tgt, err)
			}
		}
	}
}

// TestKernelRegionsPresent checks that each benchmark's ELF carries a
// symbol per kernel for the Figure 1 breakdown.
func TestKernelRegionsPresent(t *testing.T) {
	for _, p := range Suite(Tiny) {
		c, err := cc.Compile(p, cc.Target{Arch: isa.RV64, Flavor: cc.GCC12})
		if err != nil {
			t.Fatal(err)
		}
		symNames := map[string]bool{}
		for _, s := range c.File.Symbols {
			symNames[s.Name] = true
		}
		for _, k := range p.Kernels {
			if !symNames[k.Name] {
				t.Errorf("%s: kernel symbol %q missing (have %v)", p.Name, k.Name, symNames)
			}
		}
	}
}

// TestUnitLatencyDegeneration: with a unit latency model the scaled
// critical path must equal the plain critical path on a real workload.
func TestUnitLatencyDegeneration(t *testing.T) {
	p := STREAM(32, 2)
	for _, tgt := range cc.Targets() {
		c, err := cc.Compile(p, tgt)
		if err != nil {
			t.Fatal(err)
		}
		mach, _, err := c.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		plain := core.NewCritPath()
		unit := core.NewScaledCritPath(simeng.UnitLatencies())
		if _, err := (&simeng.EmulationCore{}).Run(mach, isa.MultiSink{plain, unit}); err != nil {
			t.Fatal(err)
		}
		if plain.CP() != unit.CP() {
			t.Fatalf("%s: unit-scaled CP %d != plain CP %d", tgt, unit.CP(), plain.CP())
		}
	}
}

// TestCoreModelOrdering: on every tiny workload, the ideal dataflow
// bound <= OoO cycles, and the OoO core beats the in-order core.
func TestCoreModelOrdering(t *testing.T) {
	for _, p := range Suite(Tiny) {
		for _, arch := range []isa.Arch{isa.AArch64, isa.RV64} {
			tgt := cc.Target{Arch: arch, Flavor: cc.GCC12}
			c, err := cc.Compile(p, tgt)
			if err != nil {
				t.Fatal(err)
			}
			mach, _, err := c.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			cp := core.NewCritPath()
			ooo := simeng.NewOoOModel()
			inorder := simeng.NewInOrderModel()
			if _, err := (&simeng.EmulationCore{}).Run(mach, isa.MultiSink{cp, ooo, inorder}); err != nil {
				t.Fatal(err)
			}
			if ooo.Stats().Cycles < cp.CP() {
				t.Errorf("%s/%s: OoO %d cycles beats the dataflow bound %d",
					p.Name, tgt, ooo.Stats().Cycles, cp.CP())
			}
			if inorder.Stats().Cycles < ooo.Stats().Cycles {
				t.Errorf("%s/%s: in-order (%d) faster than OoO (%d)",
					p.Name, tgt, inorder.Stats().Cycles, ooo.Stats().Cycles)
			}
		}
	}
}
