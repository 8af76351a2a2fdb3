package prof

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"isacmp/internal/telemetry"
)

func TestStageKey(t *testing.T) {
	if got := StageKey(StageSimulate, ""); got != "simulate" {
		t.Fatalf("StageKey(simulate) = %q", got)
	}
	if got := StageKey(StageSink, "windowcp"); got != "sink:windowcp" {
		t.Fatalf("StageKey(sink, windowcp) = %q", got)
	}
	if got := StageKey(StageSink, ""); got != "sink" {
		t.Fatalf("StageKey(sink, empty) = %q", got)
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Fatalf("Stage(200) = %q", got)
	}
}

func TestRecordAndSpans(t *testing.T) {
	p := New(2, 16)
	if p.Lanes() != 3 {
		t.Fatalf("Lanes() = %d, want 3 (2 workers + coordinator)", p.Lanes())
	}
	if p.CoordinatorLane() != 2 {
		t.Fatalf("CoordinatorLane() = %d, want 2", p.CoordinatorLane())
	}
	p.Record(1, StageSimulate, "", "fib/rv64", 100, 300)
	p.Record(0, StageSetup, "", "fib/rv64", 10, 50)
	p.Record(p.CoordinatorLane(), StageManifestWrite, "", "", 500, 600)
	// Out-of-range lanes fold onto the coordinator instead of panicking.
	p.Record(99, StageRetryBackoff, "", "x/y", 700, 800)

	spans := p.Spans()
	if len(spans) != 4 {
		t.Fatalf("len(Spans()) = %d, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted by start: %v", spans)
		}
	}
	if spans[0].Name != "setup" || spans[0].Lane != 0 || spans[0].Dur != 40 {
		t.Fatalf("first span = %+v", spans[0])
	}
	if spans[3].Lane != p.CoordinatorLane() {
		t.Fatalf("clamped span landed on lane %d, want coordinator", spans[3].Lane)
	}
}

func TestRingWrapKeepsExactTotals(t *testing.T) {
	p := New(1, 4)
	for i := 0; i < 10; i++ {
		start := int64(i * 100)
		p.Record(0, StageSimulate, "", "c", start, start+10)
	}
	if got := len(p.Spans()); got != 4 {
		t.Fatalf("retained spans = %d, want ring cap 4", got)
	}
	if got := p.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	// The ring keeps the newest spans.
	spans := p.Spans()
	if spans[0].Start != 600 || spans[3].Start != 900 {
		t.Fatalf("ring kept wrong window: %+v", spans)
	}
	// Totals are exact despite the wrap: 10 spans × 10ns.
	totals := p.StageTotals()
	if len(totals) != 1 || totals[0].Stage != "simulate" {
		t.Fatalf("totals = %+v", totals)
	}
	if totals[0].Spans != 10 || math.Abs(totals[0].Seconds-100e-9) > 1e-15 {
		t.Fatalf("simulate total = %+v, want 10 spans / 100ns", totals[0])
	}
}

func TestSinkLabelTotals(t *testing.T) {
	p := New(2, 16)
	p.Record(0, StageSink, "windowcp", "c", 0, 30)
	p.Record(1, StageSink, "windowcp", "c", 0, 20)
	p.Record(1, StageSink, "mix", "c", 0, 5)
	sec := p.StageSeconds()
	if math.Abs(sec["sink:windowcp"]-50e-9) > 1e-15 {
		t.Fatalf("sink:windowcp = %v, want 50ns", sec["sink:windowcp"])
	}
	if math.Abs(sec["sink:mix"]-5e-9) > 1e-15 {
		t.Fatalf("sink:mix = %v, want 5ns", sec["sink:mix"])
	}
	totals := p.StageTotals()
	if totals[0].Stage != "sink:windowcp" {
		t.Fatalf("totals not sorted largest-first: %+v", totals)
	}
}

func TestStartEnd(t *testing.T) {
	p := New(1, 8)
	h := p.Start(0, StageDeliver, "", "a/b")
	time.Sleep(time.Millisecond)
	h.End()
	spans := p.Spans()
	if len(spans) != 1 || spans[0].Name != "deliver" || spans[0].Dur <= 0 {
		t.Fatalf("Start/End span = %+v", spans)
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Fatal("nil profiler reports Enabled")
	}
	if p.Lanes() != 0 || p.CoordinatorLane() != 0 || p.Now() != 0 {
		t.Fatal("nil accessors not zero")
	}
	p.Record(0, StageSimulate, "", "", 0, 1)
	h := p.Start(0, StageSetup, "", "")
	h.End()
	if p.Spans() != nil || p.StageTotals() != nil || p.Dropped() != 0 {
		t.Fatal("nil profiler retained data")
	}
	if len(p.StageSeconds()) != 0 {
		t.Fatal("nil StageSeconds not empty")
	}
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace is invalid JSON: %v\n%s", err, buf.String())
	}
}

func TestRecordPathDoesNotAllocate(t *testing.T) {
	p := New(2, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		h := p.Start(1, StageSimulate, "", "fib/rv64")
		h.End()
	}); allocs != 0 {
		t.Fatalf("Start/End allocates %v times per span", allocs)
	}
	var nilP *Profiler
	if allocs := testing.AllocsPerRun(100, func() {
		h := nilP.Start(1, StageSimulate, "", "fib/rv64")
		h.End()
	}); allocs != 0 {
		t.Fatalf("nil Start/End allocates %v times per span", allocs)
	}
}

// TestNilHookCost pins the profiler-off price of one instrumentation
// point: a Start/End pair on a nil profiler must stay in the
// nanosecond range (two nil checks), so the handful of hooks per
// matrix cell is far below 1% of any cell's wall time. It times five
// repetitions of 200k pairs and tests the fastest, so one preemption
// cannot fail it while a real regression fails all five.
func TestNilHookCost(t *testing.T) {
	var p *Profiler
	const reps, n = 5, 200_000
	fastest := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		begin := time.Now()
		for i := 0; i < n; i++ {
			h := p.Start(0, StageSimulate, "", "c")
			h.End()
		}
		fastest = min(fastest, time.Since(begin))
	}
	if perPair := fastest / n; perPair > 200*time.Nanosecond {
		t.Fatalf("nil Start/End pair costs %v in the fastest of %d runs, want nanosecond-scale", perPair, reps)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	p := New(1, 8)
	p.Record(0, StageSimulate, "", "fib/rv64", 1000, 51000)
	p.Record(0, StageSink, "windowcp", "fib/rv64", 51000, 52000)
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []telemetry.ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("trace events = %d, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "simulate" || ev.Ph != "X" || ev.Ts != 1 || ev.Dur != 50 {
		t.Fatalf("first event = %+v (timestamps must be µs)", ev)
	}
	if doc.TraceEvents[1].Name != "sink:windowcp" || doc.TraceEvents[1].Args["label"] != "windowcp" {
		t.Fatalf("second event = %+v", doc.TraceEvents[1])
	}
}

func BenchmarkStartEnd(b *testing.B) {
	p := New(4, DefaultLaneSpans)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := p.Start(i&3, StageSimulate, "", "fib/rv64")
		h.End()
	}
}

func BenchmarkNilStartEnd(b *testing.B) {
	var p *Profiler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := p.Start(i&3, StageSimulate, "", "fib/rv64")
		h.End()
	}
}
