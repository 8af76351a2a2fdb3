package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isacmp/internal/workloads"
)

// TestMain lets the test binary act as a workload child, the way the
// bench binary re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func tinyConfig(t *testing.T, seed int64, trace bool) config {
	return config{seed: seed, trace: trace, out: t.TempDir(), scale: workloads.Tiny, minReps: 1, setupPasses: 1}
}

func checkMetrics(t *testing.T, wd workloadDoc, defs []metricDef) {
	t.Helper()
	for _, m := range defs {
		v, ok := wd.Metrics[m.name]
		if !ok {
			t.Errorf("%s: no %s", wd.Name, m.name)
			continue
		}
		if v.Unit != m.unit || v.Unit == "" {
			t.Errorf("%s: %s unit %q, want %q", wd.Name, m.name, v.Unit, m.unit)
		}
	}
}

// TestEndToEndTiny runs every workload at Tiny scale with one timed rep
// under two seeds: every end-to-end metric must be present with its
// unit, every rep correct, and the result digest independent of the
// seed.
func TestEndToEndTiny(t *testing.T) {
	digests := map[string]string{}
	for _, seed := range []int64{1, 2} {
		doc, _, err := tinyConfig(t, seed, false).run(benchWorkloads, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Workloads) != len(benchWorkloads) {
			t.Fatalf("seed %d: %d workloads, want %d", seed, len(doc.Workloads), len(benchWorkloads))
		}
		for _, wd := range doc.Workloads {
			if !wd.Correct || wd.Attempted == 0 {
				t.Errorf("seed %d %s: correct=%v attempted=%d failed=%d errors=%v",
					seed, wd.Name, wd.Correct, wd.Attempted, wd.Failed, wd.Errors)
			}
			checkMetrics(t, wd, e2eMetrics)
			for _, r := range wd.Reps {
				if d, seen := digests[wd.Name]; seen && d != r.Digest {
					t.Errorf("%s: digest %s under seed %d, %s before", wd.Name, r.Digest, seed, d)
				}
				digests[wd.Name] = r.Digest
			}
		}
		line := resultLine(doc)
		for _, m := range e2eMetrics {
			if _, ok := line.Metrics[doc.Workloads[0].Name+"/"+m.name]; ok != m.contract {
				t.Errorf("result line has %s: %v, want %v", m.name, ok, m.contract)
			}
		}
	}
}

// TestTraceTiny runs the traced breakdown of every workload: every
// per-layer metric must be present with its unit, and the Chrome trace
// must load as trace-event JSON.
func TestTraceTiny(t *testing.T) {
	doc, _, err := tinyConfig(t, 1, true).run(benchWorkloads, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, wd := range doc.Workloads {
		if !wd.Correct {
			t.Errorf("%s: errors %v", wd.Name, wd.Errors)
		}
		checkMetrics(t, wd, layerMetrics)
		data, err := os.ReadFile(wd.Trace)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: trace does not load: %v", wd.Name, err)
		}
	}
}

// TestRunnerArgs checks the command line BENCHMARK.json's runner uses:
// its flags parse in the double-dash form, and a bad value exits 2
// without printing a result line.
func TestRunnerArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload", "--seed", "1", "--seconds", "20", "--trace", "0"},
		{"--workload", "pathlen-sim", "--seed", "1", "--seconds", "20", "--trace", "2"},
		{"--workload", "pathlen-sim", "--seed", "x"},
	} {
		var out strings.Builder
		if code := benchMain(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q; want exit 2 and no output", args, code, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.5, 1.25, 9.0, 2.0, 7.75, 4.5}, 1.8125, 4.0, 8.0625},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Value != c.med || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.med, c.q3)
		}
	}
}

// TestCalibratorChaseIsOneCycle checks that the probe's loads visit
// every table word before returning to the start, so the chase cannot
// settle into a short loop that fits in a cache.
func TestCalibratorChaseIsOneCycle(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	p := cal.next[0]
	for n := 1; n < probeWords; n++ {
		if p == 0 {
			t.Fatalf("chase returns to its start after %d of %d words", n, probeWords)
		}
		p = cal.next[p]
	}
	if p != 0 {
		t.Fatalf("chase does not close after %d words", probeWords)
	}
	if s := cal.probe(); s <= 0 {
		t.Errorf("probe took %v s", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, Dur: 100, Parent: -1},
		{Name: "a", Start: 10, Dur: 30, Parent: 0},  // [10, 40)
		{Name: "b", Start: 30, Dur: 30, Parent: 0},  // [30, 60), overlaps a
		{Name: "a1", Start: 15, Dur: 5, Parent: 1},  // inside a
		{Name: "c", Start: 90, Dur: 20, Parent: 0},  // [90, 110), clipped to root
		{Name: "b1", Start: 30, Dur: 30, Parent: 2}, // covers all of b
	}
	want := []int64{100 - 50 - 10, 25, 0, 5, 20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric table in step:
// the contract metrics are exactly the ones BENCHMARK.json lists, with
// the same units, directions and bounds, and the workloads match.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(b.Workloads), len(benchWorkloads))
	}
	for i, w := range benchWorkloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	var e2e, layer []metricDef
	for _, m := range e2eMetrics {
		if m.contract {
			e2e = append(e2e, m)
		}
	}
	for _, m := range layerMetrics {
		if m.contract {
			layer = append(layer, m)
		}
	}
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, want %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(e2e), len(layer))
	}
	for i, m := range e2e {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, m)
		}
	}
	for i, m := range layer {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, m)
		}
	}
}
