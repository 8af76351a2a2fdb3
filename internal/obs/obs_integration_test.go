package obs_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"isacmp/internal/faultinject"
	"isacmp/internal/ir"
	"isacmp/internal/obs"
	"isacmp/internal/report"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// These tests exercise the whole control plane end to end: a real
// matrix run (report.RunSuite) with injected faults, observed from the
// outside through a live obs server exactly as an operator would —
// /statusz polled mid-run, /events streamed, /metrics scraped, and
// post-mortems linked from the manifest.

func tinyStream(t *testing.T) []*ir.Program {
	t.Helper()
	p := workloads.ByName("stream", workloads.Tiny)
	if p == nil {
		t.Fatal("stream workload missing")
	}
	return []*ir.Program{p}
}

// TestLiveMatrixObserved runs a 4-cell matrix in which one cell is
// made pathologically slow (and reaped by the cell timeout) while a
// client watches. The /statusz document must show cells running while
// the matrix is live and the final mix of done and failed cells
// afterwards; the /events stream must carry the transitions; /metrics
// must serve exposition text for the run's registry.
func TestLiveMatrixObserved(t *testing.T) {
	progs := tinyStream(t)
	reg := telemetry.NewRegistry()
	runID := obs.NewRunID()
	board := obs.NewBoard(runID, reg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := obs.StartServer(ctx, obs.ServerConfig{Addr: "127.0.0.1:0", Registry: reg, Board: board})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetReady(true)
	base := "http://" + srv.Addr()

	// Open the event stream before the matrix starts so no transition
	// can be missed.
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan obs.Event, 512)
	go func() {
		defer close(events)
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev obs.Event
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				events <- ev
			}
		}
	}()

	// One cell steps at a crawl from its first instruction; the cell
	// timeout reaps it while the other three complete normally. That
	// guarantees a window in which the matrix is observably live.
	inj := faultinject.New(1, faultinject.Plan{
		Workload: "stream", Target: "AArch64/GCC 9.2",
		Kind: faultinject.Slow, At: 1, SlowFor: time.Millisecond,
	})
	defer inj.Close()
	ex := report.Experiment{
		PathLength: true, Parallel: 2, Metrics: reg,
		RunID: runID, Status: board,
		CellTimeout: 500 * time.Millisecond,
		WrapMachine: inj.WrapMachine,
	}

	suiteDone := make(chan error, 1)
	var all [][]report.Row
	go func() {
		var err error
		all, _, err = report.RunSuite(progs, ex)
		suiteDone <- err
	}()

	statusz := func() obs.StatusDoc {
		r, err := http.Get(base + "/statusz")
		if err != nil {
			t.Fatalf("statusz: %v", err)
		}
		defer r.Body.Close()
		var doc obs.StatusDoc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			t.Fatalf("statusz decode: %v", err)
		}
		return doc
	}

	// Mid-run: at least one cell must be visibly running (the slow one
	// stays in that state for the whole timeout window).
	sawRunning := false
	deadline := time.Now().Add(10 * time.Second)
	for !sawRunning && time.Now().Before(deadline) {
		select {
		case err := <-suiteDone:
			suiteDone <- err
			deadline = time.Now() // matrix over; stop polling
		default:
		}
		if statusz().States["running"] > 0 {
			sawRunning = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawRunning {
		t.Error("statusz never showed a running cell during the live matrix")
	}

	select {
	case err := <-suiteDone:
		if err != nil {
			t.Fatalf("RunSuite: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("matrix did not finish")
	}

	// Final state: 3 done, the slow cell failed with the deadline
	// reason, on the board exactly as in the suite rows.
	doc := statusz()
	if doc.States["done"] != 3 || doc.States["failed"] != 1 {
		t.Errorf("final states = %+v, want 3 done / 1 failed", doc.States)
	}
	for _, c := range doc.Cells {
		if c.Target == "AArch64/GCC 9.2" {
			if c.State != obs.CellFailed || c.Reason != "deadline" {
				t.Errorf("slow cell = %+v, want failed/deadline", c)
			}
		} else if c.State != obs.CellDone {
			t.Errorf("cell %s/%s = %s, want done", c.Workload, c.Target, c.State)
		}
	}
	if fails := report.CollectFailures(all); len(fails) != 1 || fails[0].Reason != "deadline" {
		t.Errorf("suite failures = %+v, want one deadline failure", fails)
	}

	// The event stream carried the lifecycle: running transitions for
	// all 4 cells and done transitions for the healthy 3. The frames
	// may still be in flight right after RunSuite returns, so consume
	// with a deadline rather than closing the stream first.
	running, done := map[string]bool{}, map[string]bool{}
	timeout := time.After(10 * time.Second)
	for len(running) < 4 || len(done) < 3 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event stream ended early: running=%v done=%v", running, done)
			}
			if ev.RunID != runID {
				t.Errorf("event with foreign run ID %q", ev.RunID)
			}
			switch ev.State {
			case obs.CellRunning:
				running[ev.Target] = true
			case obs.CellDone:
				done[ev.Target] = true
			}
		case <-timeout:
			t.Fatalf("event stream incomplete: running=%v done=%v", running, done)
		}
	}

	// The registry is scrapeable as Prometheus text. (The server was
	// just closed; render directly — the HTTP round trip is covered by
	// the in-package server tests.)
	var b strings.Builder
	if err := obs.WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "isacmp_") {
		t.Errorf("no isacmp_ series in exposition:\n%s", b.String())
	}
}

// TestPanickingCellPostmortem is the flight-recorder acceptance path:
// a cell that panics mid-run dumps a post-mortem JSON whose path is
// carried on the FailureRecord into the manifest failures block — and
// canonicalization strips it again, so golden manifests stay stable.
func TestPanickingCellPostmortem(t *testing.T) {
	progs := tinyStream(t)
	dir := t.TempDir()
	// A sink panic: the recorder is interposed outside the injected
	// sink, so the ring holds the retirements that flowed into the
	// analysis right up to the crash.
	inj := faultinject.New(1, faultinject.Plan{
		Workload: "stream", Target: "RISC-V/GCC 12.2",
		Kind: faultinject.SinkPanic, At: 200,
	})
	defer inj.Close()
	ex := report.Experiment{
		PathLength: true, Parallel: 1,
		RunID: "run-pm", FlightDir: dir, FlightEvents: 32,
		WrapSink: inj.WrapSink,
	}
	all, _, err := report.RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	fails := report.CollectFailures(all)
	if len(fails) != 1 {
		t.Fatalf("failures = %+v, want exactly the panicked cell", fails)
	}
	f := fails[0]
	if f.Reason != "panic" {
		t.Errorf("reason = %s, want panic", f.Reason)
	}
	if f.Postmortem == "" {
		t.Fatal("failure record must carry the post-mortem path")
	}
	if want := obs.PostmortemPath(dir, "stream", "RISC-V/GCC 12.2", 1); f.Postmortem != want {
		t.Errorf("postmortem path = %q, want %q", f.Postmortem, want)
	}
	data, err := os.ReadFile(f.Postmortem)
	if err != nil {
		t.Fatalf("post-mortem artifact: %v", err)
	}
	var pm obs.Postmortem
	if err := json.Unmarshal(data, &pm); err != nil {
		t.Fatal(err)
	}
	if pm.Schema != obs.PostmortemSchema || pm.RunID != "run-pm" {
		t.Errorf("postmortem header = %s/%s", pm.Schema, pm.RunID)
	}
	if pm.Workload != "stream" || pm.Target != "RISC-V/GCC 12.2" || pm.Reason != "panic" {
		t.Errorf("postmortem identity = %s/%s reason %s", pm.Workload, pm.Target, pm.Reason)
	}
	if pm.RingCap != 32 || len(pm.LastEvents) == 0 || len(pm.LastEvents) > 32 {
		t.Errorf("ring cap %d with %d events, want 32 with a non-empty bounded lead-up", pm.RingCap, len(pm.LastEvents))
	}
	if pm.Retired == 0 {
		t.Error("postmortem must carry the retirement count at death")
	}

	// Manifest linkage and canonicalization.
	m := telemetry.NewManifest("obs-test", "tiny")
	report.AppendRows(m, "stream", all[0])
	if len(m.Failures) != 1 || m.Failures[0].Postmortem != f.Postmortem {
		t.Fatalf("manifest failures = %+v, want the post-mortem link", m.Failures)
	}
	m.Canonicalize()
	if m.Failures[0].Postmortem != "" {
		t.Error("canonicalization must strip the post-mortem path")
	}
}

// TestObsByteIdentity: every observer — the board and its meter, the
// flight recorder, the emulation core's tracer and the -progress
// heartbeat — attached to a fault-free run must not change a single
// result byte relative to a bare run, on the tee and on the fan-out.
// Both runs carry a metrics registry, because each run record carries
// the counters the registry collects.
func TestObsByteIdentity(t *testing.T) {
	progs := tinyStream(t)
	canon := func(ex report.Experiment) string {
		all, _, err := report.RunSuite(progs, ex)
		if err != nil {
			t.Fatal(err)
		}
		m := telemetry.NewManifest("obs-test", "tiny")
		report.AppendRows(m, "stream", all[0])
		m.Canonicalize()
		data, err := json.Marshal(m.Runs)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	for _, parallel := range []int{1, 2} {
		bare := canon(report.Experiment{PathLength: true, CritPath: true, Parallel: parallel, Metrics: telemetry.NewRegistry()})

		reg := telemetry.NewRegistry()
		board := obs.NewBoard("run-id", reg)
		var progress bytes.Buffer
		stop := obs.StartHeartbeat(board, slog.New(slog.NewJSONHandler(&progress, nil)), time.Millisecond)
		observed := canon(report.Experiment{
			PathLength: true, CritPath: true, Parallel: parallel,
			Metrics: reg, RunID: "run-id", Status: board,
			FlightDir: t.TempDir(), FlightEvents: 64,
			Trace: func() *telemetry.PipelineTrace { return telemetry.NewPipelineTrace(64, 1) },
		})
		stop()
		if observed != bare {
			t.Errorf("parallel %d: observed run drifted from bare run:\n got %s\nwant %s", parallel, observed, bare)
		}

		// The board saw every cell complete, and the heartbeat logged
		// each one's final record.
		doc := board.Status()
		if doc.States["done"] != 4 {
			t.Errorf("parallel %d: board states = %+v, want 4 done", parallel, doc.States)
		}
		for _, c := range doc.Cells {
			if c.Retired == 0 {
				t.Errorf("parallel %d: cell %s/%s retired count never reached the board", parallel, c.Workload, c.Target)
			}
		}
		if n := strings.Count(progress.String(), `"state":"done"`); n != 4 {
			t.Errorf("parallel %d: heartbeat logged %d final records, want 4:\n%s", parallel, n, progress.String())
		}
	}
}
