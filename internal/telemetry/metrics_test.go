package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("retired")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("retired") != c {
		t.Fatal("second Counter call returned a different handle")
	}
	g := r.Gauge("mips")
	g.Set(12.5)
	if got := g.Value(); got != 12.5 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500, 1} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-556.5) > 1e-9 {
		t.Fatalf("sum = %v, want 556.5", got)
	}
	var buckets []uint64
	for i := range h.buckets {
		buckets = append(buckets, h.buckets[i].Load())
	}
	// 0.5 and 1 land in <=1; 5 in <=10; 50 in <=100; 500 overflows.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if buckets[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", buckets, want)
		}
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("x")
}

// TestRegistryConcurrency hammers one registry from many goroutines;
// run with -race to verify the synchronisation story.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", []float64{10, 100, 1000})
			g := r.Gauge("rate")
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(float64(j % 2000))
				g.Set(float64(j))
				if j%1000 == 0 {
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter("shared"); got != goroutines*perG {
		t.Fatalf("shared = %d, want %d", got, goroutines*perG)
	}
	var h HistogramPoint
	for _, hp := range s.Histograms {
		if hp.Name == "lat" {
			h = hp
		}
	}
	if h.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	var inBuckets uint64
	for _, b := range h.Buckets {
		inBuckets += b
	}
	if inBuckets != h.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, h.Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b").Set(1.5)
	r.Histogram("c", []float64{1}).Observe(2)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("a") != 7 || back.Gauge("b") != 1.5 || len(back.Histograms) != 1 {
		t.Fatalf("round trip lost data: %s", b)
	}
}

// TestCanonicalizeStripsObs: everything the observability layer adds
// to a manifest — the obs block, obs.* metrics and postmortem paths —
// is deployment detail, not computation, and must vanish under
// canonicalization so golden comparisons ignore how a run was watched.
func TestCanonicalizeStripsObs(t *testing.T) {
	m := NewManifest("test", "tiny")
	m.Obs = &ObsConfig{
		ServeAddr: "127.0.0.1:9", RunID: "r", LogLevel: "debug", LogFormat: "json",
		FlightRecorder: &FlightRecorderConfig{Events: 256, Dir: "/tmp/fl"},
	}
	m.Failures = []FailureRecord{{Workload: "w", Target: "t", Reason: "panic", Postmortem: "/tmp/fl/pm.json"}}
	m.Metrics = &Snapshot{
		Counters: []CounterPoint{
			{Name: "sim.retired", Value: 10},
			{Name: "obs.events.dropped", Value: 3},
		},
	}
	m.Canonicalize()
	if m.Obs != nil {
		t.Error("obs block survived canonicalization")
	}
	if m.Failures[0].Postmortem != "" {
		t.Error("postmortem path survived canonicalization")
	}
	if n := len(m.Metrics.Counters); n != 1 || m.Metrics.Counters[0].Name != "sim.retired" {
		t.Errorf("obs.* metrics must be stripped, kept %+v", m.Metrics.Counters)
	}
	if m.Failures[0].Reason != "panic" {
		t.Error("canonicalization must keep the failure substance")
	}
}
