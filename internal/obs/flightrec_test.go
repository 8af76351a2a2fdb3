package obs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"isacmp/internal/isa"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
)

// testEvent is the i-th of a stream of events with distinguishable PCs
// and a mix of loads, stores and branches.
func testEvent(i int) isa.Event {
	ev := isa.Event{PC: uint64(0x1000 + 4*i), Branch: i%4 == 0, Taken: i%8 == 0}
	if i%3 == 0 {
		ev.LoadSize = 8
	}
	if i%5 == 0 {
		ev.StoreSize = 8
	}
	return ev
}

// feed pushes the first n test events through the recorder.
func feed(r *Recorder, n int) {
	for i := 0; i < n; i++ {
		ev := testEvent(i)
		r.Event(&ev)
	}
}

// TestRecorderRing: the ring keeps exactly the last N events in
// retirement order once it wraps, and the architectural tallies count
// the whole attempt, not just the ring window.
func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4, "run", "w", "t", 1, nil)
	feed(r, 10)
	evs := r.lastEvents()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("ring[%d].Seq = %d, want %d (oldest-first)", i, ev.Seq, want)
		}
		if want := uint64(0x1000 + 4*(6+i)); ev.PC != want {
			t.Errorf("ring[%d].PC = %#x, want %#x", i, ev.PC, want)
		}
	}

	// Before wrapping, the ring returns just what was recorded.
	r2 := NewRecorder(8, "run", "w", "t", 1, nil)
	feed(r2, 3)
	if evs := r2.lastEvents(); len(evs) != 3 || evs[0].Seq != 0 {
		t.Errorf("short ring = %+v, want 3 events from seq 0", evs)
	}
}

// TestRecorderEvents: a batch is recorded as its events one by one,
// so both delivery paths fill the ring and the tallies alike.
func TestRecorderEvents(t *testing.T) {
	one, batch := NewRecorder(4, "run", "w", "t", 1, nil), NewRecorder(4, "run", "w", "t", 1, nil)
	feed(one, 6)
	evs := make([]isa.Event, 6)
	for i := range evs {
		evs[i] = testEvent(i)
	}
	batch.Events(evs[:2])
	batch.Events(evs[2:])
	if batch.total != 6 || batch.loads != one.loads || batch.stores != one.stores ||
		batch.branches != one.branches || batch.taken != one.taken {
		t.Errorf("batched tallies %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
			batch.total, batch.loads, batch.stores, batch.branches, batch.taken,
			one.total, one.loads, one.stores, one.branches, one.taken)
	}
	if got, want := batch.lastEvents(), one.lastEvents(); !reflect.DeepEqual(got, want) {
		t.Errorf("batched ring = %+v, want %+v", got, want)
	}
}

// TestRecorderDump: the post-mortem artifact lands at the
// deterministic PostmortemPath, carries the classified reason, the
// ring contents and the counter deltas accumulated during the attempt
// (but not counts from before it started).
func TestRecorderDump(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("sim.retired").Add(1000) // pre-attempt noise
	r := NewRecorder(4, "run-d", "stream", "RISC-V/GCC 9.2", 2, reg)
	reg.Counter("sim.retired").Add(64)
	reg.Counter("sim.branches").Add(8)
	feed(r, 10)

	dir := t.TempDir()
	se := &simeng.SimError{
		Kind:    simeng.ErrMemFault,
		PC:      0x4242,
		Retired: 10,
		Err:     errors.New("injected fault"),
	}
	path := r.Dump(dir, se, nil)
	if want := PostmortemPath(dir, "stream", "RISC-V/GCC 9.2", 2); path != want {
		t.Fatalf("dump path = %q, want deterministic %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pm Postmortem
	if err := json.Unmarshal(data, &pm); err != nil {
		t.Fatal(err)
	}
	if pm.Schema != PostmortemSchema {
		t.Errorf("schema = %q, want %q", pm.Schema, PostmortemSchema)
	}
	if pm.RunID != "run-d" || pm.Workload != "stream" || pm.Target != "RISC-V/GCC 9.2" || pm.Attempt != 2 {
		t.Errorf("identity = %s/%s/%s a%d", pm.RunID, pm.Workload, pm.Target, pm.Attempt)
	}
	if pm.Reason != "mem-fault" || pm.PC != 0x4242 || pm.Retired != 10 {
		t.Errorf("failure = %s pc=%#x retired=%d, want mem-fault/0x4242/10", pm.Reason, pm.PC, pm.Retired)
	}
	if pm.RingCap != 4 || len(pm.LastEvents) != 4 || pm.LastEvents[0].Seq != 6 {
		t.Errorf("ring = cap %d, %d events from seq %d", pm.RingCap, len(pm.LastEvents), pm.LastEvents[0].Seq)
	}
	deltas := map[string]uint64{}
	for _, c := range pm.Counters {
		deltas[c.Name] = c.Delta
	}
	if deltas["sim.retired"] != 64 || deltas["sim.branches"] != 8 {
		t.Errorf("counter deltas = %+v, want sim.retired=64 sim.branches=8", deltas)
	}
}

// TestPostmortemPathSanitised: cell identity strings with separators
// map onto one flat, safe file name inside dir.
func TestPostmortemPathSanitised(t *testing.T) {
	p := PostmortemPath("/tmp/fl", "str eam", "RISC-V/GCC 9.2", 1)
	base := filepath.Base(p)
	if filepath.Dir(p) != "/tmp/fl" {
		t.Errorf("dir = %q", filepath.Dir(p))
	}
	if base != "postmortem-str-eam-RISC-V-GCC-9.2-a1.json" {
		t.Errorf("file name = %q", base)
	}
	if strings.ContainsAny(base, "/ ") {
		t.Errorf("unsafe characters survived: %q", base)
	}
}

// TestDumpUnwritableDir: a failed dump logs and returns "" instead of
// panicking — a broken flight-recorder path must never turn a
// classified failure into a crash.
func TestDumpUnwritableDir(t *testing.T) {
	r := NewRecorder(4, "run", "w", "t", 1, nil)
	feed(r, 1)
	se := &simeng.SimError{Kind: simeng.ErrPanic, Err: errors.New("x")}
	dir := filepath.Join(t.TempDir(), "file-not-dir")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if path := r.Dump(dir, se, nil); path != "" {
		t.Errorf("dump into non-directory returned %q, want \"\"", path)
	}
}
