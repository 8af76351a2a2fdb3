package isacmp

import (
	"testing"
	"time"

	"isacmp/internal/prof"
	"isacmp/internal/report"
)

// TestProfilerOffOverheadBudget is the zero-overhead gate for the
// disabled profiler: the cost a -profile-off run pays is exactly the
// nil-receiver hook pairs the execution path executes. The test runs
// the tiny matrix unprofiled for a wall-time denominator, counts the
// hook pairs a profiled run of the same matrix records, measures the
// real nil-hook pair cost, and requires the product to stay under 1%
// of the wall time — with orders of magnitude to spare, so scheduler
// noise cannot flake it.
func TestProfilerOffOverheadBudget(t *testing.T) {
	progs := Suite(Tiny)
	ex := report.Experiment{
		PathLength: true, CritPath: true, Scaled: true, Windowed: true,
		Parallel: 1,
	}
	start := time.Now()
	if _, _, err := report.RunSuite(progs, ex); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()

	p := prof.New(1, 0)
	ex.Prof = p
	if _, _, err := report.RunSuite(progs, ex); err != nil {
		t.Fatal(err)
	}
	var hookPairs int64
	for _, st := range p.StageTotals() {
		hookPairs += st.Spans
	}
	if hookPairs == 0 {
		t.Fatal("profiled run recorded no spans; hook count is wrong")
	}

	var nilProf *prof.Profiler
	const iters = 1_000_000
	start = time.Now()
	for i := 0; i < iters; i++ {
		sp := nilProf.Start(0, prof.StageSimulate, "", "")
		sp.End()
	}
	pairSeconds := time.Since(start).Seconds() / iters

	overheadPercent := pairSeconds * float64(hookPairs) / wall * 100
	t.Logf("profiler-off: %d hook pairs x %.1fns = %.5f%% of %.3fs wall",
		hookPairs, pairSeconds*1e9, overheadPercent, wall)
	if overheadPercent > 1 {
		t.Fatalf("disabled-profiler overhead %.3f%% exceeds the 1%% budget (%d pairs, %.1fns each, %.3fs wall)",
			overheadPercent, hookPairs, pairSeconds*1e9, wall)
	}
}
