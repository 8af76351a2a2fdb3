package core

import (
	"fmt"
	"slices"
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/simeng"
	"isacmp/internal/workloads"
)

// noKernel is why the lane kernel's tests skip.
const noKernel = "the CPU has no AVX2 with OS-enabled YMM state, so the lane kernel is never selected"

// resolveAll resolves evs into one run from event 0, with the reach of
// the largest of sizes.
func resolveAll(evs []isa.Event, sizes []int) *prodRun {
	r, run := newResolver(maxWindow(sizes)), newProdRun(uint64(len(evs)))
	for i := range evs {
		run.add(&r, &evs[i])
	}
	return run
}

// checkKernel diffs the lane kernel against laneFold on evs: through a
// WindowedCritPath, which folds at most 2·maxSize events per call, and
// in one fold over the whole stream, which the kernel splits into
// calls of 2^14 events.
func checkKernel(t *testing.T, name string, evs []isa.Event, sizes []int, stride int) {
	t.Helper()
	kern, ref := newWindowedCritPath(sizes, stride, true), newWindowedCritPath(sizes, stride, false)
	if kern.kernel == nil || ref.kernel != nil || ref.lanes == nil {
		t.Fatalf("%s: sizes %v stride %d do not fold by the kernel and by laneFold", name, sizes, stride)
	}
	kern.Events(evs)
	ref.Events(evs)
	if got, want := kern.Results(), ref.Results(); !slices.Equal(got, want) {
		t.Fatalf("%s: sizes %v stride %d: kernel %+v, laneFold %+v", name, sizes, stride, got, want)
	}

	run := resolveAll(evs, sizes)
	maxSize, strides := maxWindow(sizes), windowStrides(sizes, stride)
	kf, rf := newWindowFold(sizes, strides, maxSize, true), newWindowFold(sizes, strides, maxSize, false)
	kacc, racc := make([]windowAccum, len(sizes)), make([]windowAccum, len(sizes))
	kf.fold(run, 0, run.end(), kacc)
	rf.fold(run, 0, run.end(), racc)
	if !slices.Equal(kacc, racc) {
		t.Fatalf("%s: sizes %v stride %d, one fold over %d events: kernel %+v, laneFold %+v",
			name, sizes, stride, run.end(), kacc, racc)
	}
}

// TestLaneKernelMatchesGoFold: the lane kernel gives every window the
// critical path laneFold gives it, on random streams with multi-word
// and fused-pair loads, on every tiny-scale paper stream raw and
// fused, at strides that leave lanes idle between windows, and with
// lane counts that fill no whole group of 8 or a lone group after
// pairs.
func TestLaneKernelMatchesGoFold(t *testing.T) {
	if laneKernelFold == nil {
		t.Skip(noKernel)
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			// 99,081 events: seven kernel calls of at most 2^14
			// events in one fold, and 48 refills of the 2·maxSize run
			// at the paper's sizes.
			evs := randStream(seed, 3<<15+777)
			checkKernel(t, fmt.Sprint("seed ", seed), evs, PaperWindowSizes(), 0)
			checkKernel(t, fmt.Sprint("seed ", seed), evs[:5000], []int{4, 16, 64}, int(seed))
		}
	})
	t.Run("tiny", func(t *testing.T) {
		for _, s := range tinyStreams(t) {
			checkKernel(t, s.name, s.evs, PaperWindowSizes(), 0)
		}
	})
	evs := randStream(4, 20000)
	t.Run("gap strides", func(t *testing.T) {
		checkKernel(t, "gaps", evs, []int{1, 3, 5, 7, 33}, 2)
		checkKernel(t, "gaps", evs, []int{3, 7, 201, 1999}, 0)
		checkKernel(t, "gaps", evs, []int{3, 7, 200, 2000}, 333)
	})
	t.Run("lane counts", func(t *testing.T) {
		for _, c := range []struct {
			sizes  []int
			stride int
			lanes  uint64
		}{
			{[]int{5}, 5, 1},
			{[]int{4, 16, 64}, 0, 6},
			{[]int{8}, 1, 8},
			{[]int{4, 16, 64, 200, 500}, 0, 10},
			{[]int{9, 8}, 1, 17},
			{[]int{2000}, 100, 20},
			{[]int{3, 5, 7, 9, 11}, 1, 35},
		} {
			if f := newLaneKernel(c.sizes, windowStrides(c.sizes, c.stride), maxWindow(c.sizes)); f.lanes != c.lanes {
				t.Fatalf("sizes %v stride %d: %d lanes, want %d", c.sizes, c.stride, f.lanes, c.lanes)
			}
			checkKernel(t, fmt.Sprint(c.lanes, " lanes"), evs, c.sizes, c.stride)
		}
	})
}

// shift adds c to every value the kernel holds, as if its lanes had
// started c events deeper.
func (f *laneKernel) shift(c uint32) {
	for i := range f.ring {
		f.ring[i] += c
	}
	for l := uint64(0); l < 8*f.groups; l++ {
		*f.at(kBase, l) += c
		*f.at(kPeak, l) += c
	}
	f.top += uint64(c)
}

// TestLaneKernelRenormalises: a kernel whose lane state is shifted
// close to 2^31, where it renormalises some calls later, or close to
// 2^32, where its values would wrap within the stream, folds the same
// windows as one that is not, and as laneFold.
func TestLaneKernelRenormalises(t *testing.T) {
	if laneKernelFold == nil {
		t.Skip(noKernel)
	}
	const prefix, chunk = 5000, 1000
	evs := randStream(8, 40000)
	sizes := PaperWindowSizes()
	maxSize, strides := maxWindow(sizes), windowStrides(sizes, 0)
	run := resolveAll(evs, sizes)
	fold := func(f interface {
		fold(*prodRun, uint64, uint64, []windowAccum)
	}, shift func()) []windowAccum {
		acc := make([]windowAccum, len(sizes))
		f.fold(run, 0, prefix, acc)
		shift()
		for k := uint64(prefix); k < run.end(); k += chunk {
			f.fold(run, k, min(k+chunk, run.end()), acc)
		}
		return acc
	}
	want := fold(newLaneFold(sizes, strides, maxSize), func() {})
	for _, c := range []uint32{0, 1<<31 - prefix - 3*chunk, 1<<32 - 1<<14} {
		f := newLaneKernel(sizes, strides, maxSize)
		if got := fold(f, func() { f.shift(c) }); !slices.Equal(got, want) {
			t.Fatalf("state shifted by %d: kernel %+v, laneFold %+v", c, got, want)
		}
		if f.top >= 1<<31 {
			t.Fatalf("state shifted by %d: peaks may reach %d", c, f.top)
		}
	}
}

// BenchmarkLaneFold measures the lane fold alone, in ns per event: the
// paper's window sizes at stride W/2 over the first 2^18 events of the
// LBM cell on RISC-V/GCC 12.2 at Small scale, resolved before timing
// and folded in chunks of the largest window, as WindowedCritPath
// folds them, by a fresh fold from event 0 at the end of the run,
// built with the timer stopped. kernel folds with the lane kernel and
// go with laneFold; both allocate nothing.
func BenchmarkLaneFold(b *testing.B) {
	sizes := PaperWindowSizes()
	maxSize, strides := maxWindow(sizes), windowStrides(sizes, 0)
	i := slices.IndexFunc(workloads.Suite(workloads.Small), func(p *ir.Program) bool { return p.Name == "lbm" })
	compiled, err := cc.Compile(workloads.Suite(workloads.Small)[i], cc.Target{Arch: isa.RV64, Flavor: cc.GCC12})
	if err != nil {
		b.Fatal(err)
	}
	mach, _, err := compiled.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	res, run := newResolver(maxSize), newProdRun(1<<18)
	record := isa.SinkFunc(func(ev *isa.Event) {
		if run.end() < 1<<18 {
			run.add(&res, ev)
		}
	})
	if _, err := (&simeng.EmulationCore{}).Run(mach, record); err != nil {
		b.Fatal(err)
	}
	bench := func(b *testing.B, kernel bool) {
		f, acc := newWindowFold(sizes, strides, maxSize, kernel), make([]windowAccum, len(sizes))
		b.ReportAllocs()
		b.ResetTimer()
		for k, n := uint64(0), 0; n < b.N; {
			if k == run.end() {
				b.StopTimer()
				f, k = newWindowFold(sizes, strides, maxSize, kernel), 0
				b.StartTimer()
			}
			to := min(k+maxSize, run.end(), k+uint64(b.N-n))
			f.fold(run, k, to, acc)
			n += int(to - k)
			k = to
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	}
	b.Run("kernel", func(b *testing.B) {
		if laneKernelFold == nil {
			b.Skip(noKernel)
		}
		bench(b, true)
	})
	b.Run("go", func(b *testing.B) { bench(b, false) })
}
