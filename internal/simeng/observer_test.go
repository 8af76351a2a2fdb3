package simeng_test

import (
	"testing"

	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
)

// TestEmulationCoreObserver traces the emulation core's retirement
// stream with the pipeline tracer as its sink: every retired
// instruction is observed once, dispatched and issued at its own
// index and completed one cycle later, and the core's pipeline stats
// report one cycle per instruction.
func TestEmulationCoreObserver(t *testing.T) {
	m := simeng.RVLoop(t, 25)
	tr := telemetry.NewPipelineTrace(0, 1)
	c := &simeng.EmulationCore{}
	stats, err := c.Run(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Observed() != stats.Instructions {
		t.Fatalf("observed %d retires, want %d", tr.Observed(), stats.Instructions)
	}
	spans := tr.Spans()
	if uint64(len(spans)) != stats.Instructions {
		t.Fatalf("%d spans, want %d", len(spans), stats.Instructions)
	}
	for i, s := range spans {
		if s.Seq != uint64(i) || s.Dispatch != s.Seq || s.Issue != s.Seq || s.Complete != s.Seq+1 {
			t.Fatalf("span %d = %+v, want dispatch = issue = seq and complete = seq+1", i, s)
		}
	}
	ps := c.PipelineStats()
	if ps.Model != "emulation" || ps.Instructions != stats.Instructions || ps.Cycles != stats.Cycles {
		t.Fatalf("pipeline stats = %+v", ps)
	}
}
