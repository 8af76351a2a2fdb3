package isacmp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	prog := Workload("stream", Tiny)
	if prog == nil {
		t.Fatal("stream workload missing")
	}
	for _, tgt := range Targets() {
		bin, err := Compile(prog, tgt)
		if err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		if err := bin.Verify(); err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		res, err := bin.Analyse(Analyses{
			PathLength: true, CritPath: true, ScaledCritPath: true,
			Windowed: true, WindowSizes: []int{4, 64},
		})
		if err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		if res.Stats.Instructions == 0 || res.CP == 0 || res.ScaledCP == 0 {
			t.Fatalf("%s: empty analysis %+v", tgt, res)
		}
		if res.CP > res.Stats.Instructions {
			t.Fatalf("%s: CP %d exceeds path length %d", tgt, res.CP, res.Stats.Instructions)
		}
		if res.ScaledCP < res.CP {
			t.Fatalf("%s: scaled CP %d below plain CP %d", tgt, res.ScaledCP, res.CP)
		}
		if math.Abs(res.ILP*float64(res.CP)-float64(res.Stats.Instructions)) > 1 {
			t.Fatalf("%s: ILP identity broken", tgt)
		}
		var total uint64
		for _, rc := range res.Regions {
			total += rc.Count
		}
		if total+res.OtherInstructions != res.Stats.Instructions {
			t.Fatalf("%s: region counts %d + other %d != total %d",
				tgt, total, res.OtherInstructions, res.Stats.Instructions)
		}
		if len(res.Windows) != 2 || res.Windows[0].MeanILP <= 0 {
			t.Fatalf("%s: windows %+v", tgt, res.Windows)
		}
	}
}

func TestWorkloadRegistry(t *testing.T) {
	if len(Workloads()) != 5 {
		t.Fatalf("workloads: %v", Workloads())
	}
	if Workload("nope", Tiny) != nil {
		t.Fatal("unknown workload returned non-nil")
	}
	if len(Suite(Tiny)) != 5 {
		t.Fatal("suite incomplete")
	}
}

// TestPaperListingShapes verifies that the generated copy kernels use
// the exact instruction sequences the paper's section 3.3 analyses.
func TestPaperListingShapes(t *testing.T) {
	prog := Workload("stream", Small) // bound 20000 exceeds imm12

	disasm := func(tgt Target) string {
		bin, err := Compile(prog, tgt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := bin.Disassemble("copy", &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	arm12 := disasm(Target{Arch: AArch64, Flavor: GCC12})
	for _, want := range []string{"ldr d", "lsl #3]", "str d", "cmp x", "b.ne"} {
		if !strings.Contains(arm12, want) {
			t.Errorf("AArch64 GCC12 copy kernel missing %q:\n%s", want, arm12)
		}
	}
	if strings.Contains(arm12, "subs") {
		t.Errorf("AArch64 GCC12 copy kernel should not use subs:\n%s", arm12)
	}

	arm9 := disasm(Target{Arch: AArch64, Flavor: GCC9})
	for _, want := range []string{"sub x", "lsl #12", "subs x"} {
		if !strings.Contains(arm9, want) {
			t.Errorf("AArch64 GCC9 copy kernel missing the sub/subs idiom %q:\n%s", want, arm9)
		}
	}

	rv := disasm(Target{Arch: RV64, Flavor: GCC12})
	for _, want := range []string{"fld f", "fsd f", "addi t", "bne t"} {
		if !strings.Contains(rv, want) {
			t.Errorf("RV64 copy kernel missing %q:\n%s", want, rv)
		}
	}
	if strings.Contains(rv, "slli") && strings.Count(rv, "slli") > 1 {
		t.Errorf("RV64 copy loop should be pointer-bumped, not computed:\n%s", rv)
	}
}

// TestGCCDeltaDirection checks the paper's compiler-version finding:
// GCC 12.2 shortens the AArch64 STREAM path, and the RISC-V kernels
// are identical between compiler versions.
func TestGCCDeltaDirection(t *testing.T) {
	// Use the small scale: its 20000 bound exceeds imm12, so the GCC 9
	// sub/subs idiom appears.
	prog := Workload("stream", Small)
	counts := map[Target]uint64{}
	for _, tgt := range Targets() {
		bin, err := Compile(prog, tgt)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := bin.Run()
		if err != nil {
			t.Fatal(err)
		}
		counts[tgt] = stats.Instructions
	}
	arm9 := counts[Target{Arch: AArch64, Flavor: GCC9}]
	arm12 := counts[Target{Arch: AArch64, Flavor: GCC12}]
	if arm12 >= arm9 {
		t.Errorf("GCC12 AArch64 (%d) not shorter than GCC9 (%d)", arm12, arm9)
	}
	rv9 := counts[Target{Arch: RV64, Flavor: GCC9}]
	rv12 := counts[Target{Arch: RV64, Flavor: GCC12}]
	// RISC-V kernels are identical; only the prologue differs.
	if diff := int64(rv9) - int64(rv12); diff < 0 || diff > 16 {
		t.Errorf("RISC-V GCC9/12 delta = %d, want small positive prologue-only delta", diff)
	}
}

// TestELFRoundTrip writes the ELF image out and ensures it can be
// reloaded and produces the same results.
func TestELFRoundTrip(t *testing.T) {
	prog := Workload("minisweep", Tiny)
	bin, err := Compile(prog, Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	img := bin.ELF()
	if len(img) == 0 || string(img[1:4]) != "ELF" {
		t.Fatalf("bad ELF image (%d bytes)", len(img))
	}
	if len(bin.Symbols()) == 0 {
		t.Fatal("no symbols")
	}
	if bin.ArrayBase("psi") == 0 {
		t.Fatal("psi array not laid out")
	}
}

// TestWindowedCrossoverShape reproduces the Figure 2 qualitative
// finding: at small windows RISC-V exposes at least as much ILP as
// AArch64 on STREAM-like code (its pointer walks are mutually
// independent, where AArch64 serialises on one index register).
func TestWindowedCrossoverShape(t *testing.T) {
	prog := Workload("stream", Tiny)
	ilp := map[Arch][]WindowResult{}
	for _, arch := range []Arch{AArch64, RV64} {
		bin, err := Compile(prog, Target{Arch: arch, Flavor: GCC12})
		if err != nil {
			t.Fatal(err)
		}
		res, err := bin.Analyse(Analyses{Windowed: true, WindowSizes: []int{4, 16, 64}})
		if err != nil {
			t.Fatal(err)
		}
		ilp[arch] = res.Windows
	}
	if ilp[RV64][0].MeanILP < ilp[AArch64][0].MeanILP*0.95 {
		t.Errorf("window 4: RV64 ILP %.2f far below AArch64 %.2f (paper: RISC-V leads at small windows)",
			ilp[RV64][0].MeanILP, ilp[AArch64][0].MeanILP)
	}
}

func TestTimingModels(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: AArch64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	inorder, err := bin.RunInOrder()
	if err != nil {
		t.Fatal(err)
	}
	ooo, err := bin.RunOoO(nil)
	if err != nil {
		t.Fatal(err)
	}
	if inorder.Cycles == 0 || ooo.Cycles == 0 {
		t.Fatal("timing models returned zero cycles")
	}
	if ooo.Cycles >= inorder.Cycles {
		t.Errorf("OoO (%d cycles) should beat in-order (%d cycles)", ooo.Cycles, inorder.Cycles)
	}
	// The OoO core cannot beat the dataflow limit.
	res, err := bin.Analyse(Analyses{CritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if ooo.Cycles < res.CP {
		t.Errorf("OoO cycles %d below the dataflow bound %d", ooo.Cycles, res.CP)
	}
}

func TestDisassembleErrors(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: AArch64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bin.Disassemble("nonexistent", &buf); err == nil {
		t.Fatal("disassembling unknown kernel should fail")
	}
}

// TestCrossISAResultsIdentical: both ISAs must compute bit-identical
// array contents for every workload (they share FMA contraction and
// IEEE semantics).
func TestCrossISAResultsIdentical(t *testing.T) {
	for _, prog := range Suite(Tiny) {
		images := map[Arch]map[string][]uint64{}
		for _, arch := range []Arch{AArch64, RV64} {
			bin, err := Compile(prog, Target{Arch: arch, Flavor: GCC12})
			if err != nil {
				t.Fatalf("%s: %v", prog.Name, err)
			}
			mach, m, err := bin.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bin.Run(); err != nil {
				t.Fatal(err)
			}
			_ = mach
			// Re-run on a fresh machine so we can read its memory.
			mach2, m2, err := bin.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			_ = m
			for {
				done, err := mach2.Step(&Event{})
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
			}
			arrs := map[string][]uint64{}
			for _, a := range prog.Arrays {
				base := bin.ArrayBase(a.Name)
				vals := make([]uint64, a.Len)
				for i := range vals {
					v, err := m2.Read64(base + uint64(i)*8)
					if err != nil {
						t.Fatal(err)
					}
					vals[i] = v
				}
				arrs[a.Name] = vals
			}
			images[arch] = arrs
		}
		for name, armVals := range images[AArch64] {
			rvVals := images[RV64][name]
			for i := range armVals {
				if armVals[i] != rvVals[i] {
					t.Fatalf("%s: %s[%d]: AArch64 %#x != RV64 %#x",
						prog.Name, name, i, armVals[i], rvVals[i])
				}
			}
		}
	}
}

// TestDepDistanceAnalysis runs the dependency-locality diagnostic on
// STREAM for both ISAs and checks its invariants. (The windowed-CP
// test covers the paper's actual Figure 2 claim; this histogram is a
// complementary diagnostic — RISC-V's pointer self-edges add short
// edges even while its chains inside a window stay shallower.)
func TestDepDistanceAnalysis(t *testing.T) {
	prog := Workload("stream", Tiny)
	for _, arch := range []Arch{AArch64, RV64} {
		bin, err := Compile(prog, Target{Arch: arch, Flavor: GCC12})
		if err != nil {
			t.Fatal(err)
		}
		res, err := bin.Analyse(Analyses{DepDistances: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanDepDistance < 1 {
			t.Errorf("%v: mean distance %v < 1", arch, res.MeanDepDistance)
		}
		if res.ShortDepFraction16 <= 0 || res.ShortDepFraction16 > 1 {
			t.Errorf("%v: short fraction %v out of range", arch, res.ShortDepFraction16)
		}
	}
}

// TestAblationAPIVerifies: binaries compiled with each ablation knob
// must still verify against the (matching) host reference.
func TestAblationAPIVerifies(t *testing.T) {
	prog := Workload("cloverleaf", Tiny)
	for _, opts := range []CompilerOptions{
		{NoFMA: true},
		{NoStrengthReduction: true},
		{NoHoisting: true},
	} {
		for _, tgt := range Targets() {
			bin, err := CompileWithOptions(prog, tgt, opts)
			if err != nil {
				t.Fatalf("%+v %s: %v", opts, tgt, err)
			}
			if err := bin.Verify(); err != nil {
				t.Fatalf("%+v %s: %v", opts, tgt, err)
			}
		}
	}
}

// TestLatencyConfigAPI: a custom core description flows through the
// scaled analysis.
func TestLatencyConfigAPI(t *testing.T) {
	lat, err := ParseLatencyConfig(strings.NewReader("fp-add: 50\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := bin.Analyse(Analyses{ScaledCritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	custom, err := bin.Analyse(Analyses{ScaledCritPath: true, Latencies: lat})
	if err != nil {
		t.Fatal(err)
	}
	if custom.ScaledCP <= tx2.ScaledCP {
		t.Fatalf("fp-add=50 did not lengthen the scaled CP: %d vs %d",
			custom.ScaledCP, tx2.ScaledCP)
	}
}

// TestWindowStrideAPI: disjoint windows produce fewer evaluations than
// the default 50% overlap but similar mean ILP.
func TestWindowStrideAPI(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: AArch64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := bin.Analyse(Analyses{Windowed: true, WindowSizes: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	disjoint, err := bin.Analyse(Analyses{Windowed: true, WindowSizes: []int{16}, WindowStride: 16})
	if err != nil {
		t.Fatal(err)
	}
	if disjoint.Windows[0].Windows >= overlap.Windows[0].Windows {
		t.Fatalf("disjoint windows (%d) should be fewer than overlapped (%d)",
			disjoint.Windows[0].Windows, overlap.Windows[0].Windows)
	}
	ratio := disjoint.Windows[0].MeanILP / overlap.Windows[0].MeanILP
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("stride changed mean ILP implausibly: %v", ratio)
	}
}

// TestWindowSettingsRejected: Analyse rejects the window settings
// report.Experiment.Validate rejects, instead of running a negative
// stride as disjoint windows or returning empty rows for sizes that
// are not positive.
func TestWindowSettingsRejected(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: AArch64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []Analyses{
		{Windowed: true, WindowSizes: []int{16}, WindowStride: -1},
		{Windowed: true, WindowSizes: []int{0, -4}},
	} {
		if _, err := bin.Analyse(sel); err == nil {
			t.Errorf("Analyse(%+v) accepted the window settings", sel)
		}
	}
}

// TestMultiSinkRun: multiple sinks attached through the public API see
// the same stream.
func TestMultiSinkRun(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	var n1, n2 uint64
	stats, err := bin.Run(
		SinkFunc(func(*Event) { n1++ }),
		SinkFunc(func(*Event) { n2++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != stats.Instructions || n2 != stats.Instructions {
		t.Fatalf("sinks saw %d/%d events, stats %d", n1, n2, stats.Instructions)
	}
}

// TestMixAndBranchesAPI: the mix/branch analyses flow through Analyse.
func TestMixAndBranchesAPI(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bin.Analyse(Analyses{Mix: true, Branches: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MixCounts) == 0 {
		t.Fatal("no mix data")
	}
	var total uint64
	for _, gc := range res.MixCounts {
		total += gc.Count
	}
	if total != res.Stats.Instructions {
		t.Fatalf("mix total %d != instructions %d", total, res.Stats.Instructions)
	}
	// STREAM's branch density is ~14-16% on both ISAs (paper: ~15%).
	if res.BranchDensity < 0.10 || res.BranchDensity > 0.20 {
		t.Fatalf("branch density %v outside the STREAM range", res.BranchDensity)
	}
	if res.BranchTakenRate < 0.9 {
		t.Fatalf("taken rate %v (loops should dominate)", res.BranchTakenRate)
	}
	if res.BranchCount == 0 {
		t.Fatal("no branches counted")
	}
}

// TestCompileErrorsSurface: facade propagates compile errors.
func TestCompileErrorsSurface(t *testing.T) {
	bad := NewProgram("bad")
	bad.Repeat = 0
	if _, err := Compile(bad, Target{Arch: AArch64, Flavor: GCC12}); err == nil {
		t.Fatal("invalid program accepted")
	}
}
