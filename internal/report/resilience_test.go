package report

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"isacmp/internal/cc"
	"isacmp/internal/faultinject"
	"isacmp/internal/ir"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// The acceptance tests for the resilience layer: with faults injected
// into k of N matrix cells, a full run must complete with exactly N-k
// healthy rows that are byte-identical to the fault-free run, k FAILED
// cells carrying the right typed reason and attempt count, and hung
// cells reaped by the timeout without stalling the pool.

func resilienceProgs(t *testing.T) []*ir.Program {
	t.Helper()
	var progs []*ir.Program
	for _, name := range []string{"stream", "lbm"} {
		p := workloads.ByName(name, workloads.Tiny)
		if p == nil {
			t.Fatalf("workload %s missing", name)
		}
		progs = append(progs, p)
	}
	return progs
}

func resilienceEx(parallel int) Experiment {
	return Experiment{PathLength: true, CritPath: true, Parallel: parallel}
}

// canonRunJSON canonicalizes the suite's manifest and returns each
// healthy cell's run record as marshalled JSON, keyed by
// workload|target — the byte-identity currency of the tests below.
func canonRunJSON(t *testing.T, progs []*ir.Program, all [][]Row) map[string]string {
	t.Helper()
	m := telemetry.NewManifest("resilience-test", "tiny")
	for i, p := range progs {
		AppendRows(m, p.Name, all[i])
	}
	m.Canonicalize()
	out := make(map[string]string, len(m.Runs))
	for _, r := range m.Runs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[r.Workload+"|"+r.Target] = string(b)
	}
	return out
}

// TestMatrixSurvivesFaults is the headline acceptance test: 3 of 8
// cells are faulted (a decode error, an exec-layer panic and a sink
// panic), the run completes, the 5 healthy cells are byte-identical to
// the fault-free run and the 3 failures carry the right typed reason.
func TestMatrixSurvivesFaults(t *testing.T) {
	progs := resilienceProgs(t)
	clean, _, err := RunSuite(progs, resilienceEx(2))
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON := canonRunJSON(t, progs, clean)

	inj := faultinject.New(1,
		faultinject.Plan{Workload: "stream", Target: "RISC-V/GCC 9.2", Kind: faultinject.Decode, At: 100},
		faultinject.Plan{Workload: "lbm", Target: "AArch64/GCC 12.2", Kind: faultinject.Panic, At: 50},
		faultinject.Plan{Workload: "lbm", Target: "RISC-V/GCC 12.2", Kind: faultinject.SinkPanic, At: 200},
	)
	defer inj.Close()
	ex := resilienceEx(2)
	ex.WrapMachine = inj.WrapMachine
	ex.WrapSink = inj.WrapSink
	faulted, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatalf("continue-on-error run must complete: %v", err)
	}

	if n := CountFailures(faulted); n != 3 {
		t.Fatalf("failures = %d, want 3", n)
	}
	wantReason := map[string]string{
		"stream|RISC-V/GCC 9.2": "decode",
		"lbm|AArch64/GCC 12.2":  "panic",
		"lbm|RISC-V/GCC 12.2":   "panic", // sink panic surfaces as panic kind
	}
	for _, f := range CollectFailures(faulted) {
		key := f.Workload + "|" + f.Target
		want, ok := wantReason[key]
		if !ok {
			t.Errorf("unexpected failed cell %s (reason %s)", key, f.Reason)
			continue
		}
		if f.Reason != want {
			t.Errorf("%s: reason = %s, want %s", key, f.Reason, want)
		}
		if f.Attempts != 1 {
			t.Errorf("%s: attempts = %d, want 1 (no retries configured)", key, f.Attempts)
		}
		if len(f.History) != 1 || f.History[0].Reason != want {
			t.Errorf("%s: history = %+v, want one %s attempt", key, f.History, want)
		}
	}

	faultedJSON := canonRunJSON(t, progs, faulted)
	if len(faultedJSON) != len(cleanJSON)-3 {
		t.Fatalf("healthy cells = %d, want %d", len(faultedJSON), len(cleanJSON)-3)
	}
	for key, got := range faultedJSON {
		if want := cleanJSON[key]; got != want {
			t.Errorf("healthy cell %s drifted under fault injection:\n got %s\nwant %s", key, got, want)
		}
	}
}

// TestRetryRecoversTransientFault: a fault armed only for the first
// two attempts is healed by the third; the row is healthy, reports its
// attempt count, and its results match the fault-free run exactly.
func TestRetryRecoversTransientFault(t *testing.T) {
	progs := resilienceProgs(t)[:1] // stream only
	clean, _, err := RunSuite(progs, resilienceEx(1))
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(1, faultinject.Plan{
		Workload: "stream", Target: "AArch64/GCC 9.2",
		Kind: faultinject.MemFault, At: 64, FirstAttempts: 2,
	})
	defer inj.Close()
	ex := resilienceEx(1)
	ex.Retries = 2
	ex.RetryBackoff = time.Millisecond
	ex.WrapMachine = inj.WrapMachine
	faulted, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	if n := CountFailures(faulted); n != 0 {
		t.Fatalf("failures = %d, want 0 (fault is transient)", n)
	}
	var row *Row
	for i := range faulted[0] {
		if faulted[0][i].Target.String() == "AArch64/GCC 9.2" {
			row = &faulted[0][i]
		}
	}
	if row == nil {
		t.Fatal("target row missing")
	}
	if row.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", row.Attempts)
	}

	// Result bytes must match the fault-free run; only the retries
	// counter may differ, and it must say 2.
	cleanJSON := canonRunJSON(t, progs, clean)
	faultedJSON := canonRunJSON(t, progs, faulted)
	key := "stream|AArch64/GCC 9.2"
	got := strings.Replace(faultedJSON[key], `"retries":2,`, "", 1)
	if got == faultedJSON[key] {
		t.Fatalf("record %s does not carry \"retries\":2", faultedJSON[key])
	}
	if got != cleanJSON[key] {
		t.Errorf("retried cell drifted from fault-free run:\n got %s\nwant %s", got, cleanJSON[key])
	}
}

// TestRetryExhaustion: a persistent fault burns through every attempt
// and the FAILED record carries the full history.
func TestRetryExhaustion(t *testing.T) {
	progs := resilienceProgs(t)[:1]
	inj := faultinject.New(1, faultinject.Plan{
		Workload: "stream", Target: "RISC-V/GCC 12.2",
		Kind: faultinject.MemFault, At: 32,
	})
	defer inj.Close()
	ex := resilienceEx(1)
	ex.Retries = 1
	ex.WrapMachine = inj.WrapMachine
	all, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	fails := CollectFailures(all)
	if len(fails) != 1 {
		t.Fatalf("failures = %d, want 1", len(fails))
	}
	f := fails[0]
	if f.Reason != "mem-fault" {
		t.Errorf("reason = %s, want mem-fault", f.Reason)
	}
	if f.Attempts != 2 || len(f.History) != 2 {
		t.Errorf("attempts = %d, history = %d, want 2/2", f.Attempts, len(f.History))
	}
	if f.Retired == 0 || f.PC == 0 {
		t.Errorf("failure must locate the fault: pc=%#x retired=%d", f.PC, f.Retired)
	}
	for i, a := range f.History {
		if a.Attempt != i+1 || a.Reason != "mem-fault" {
			t.Errorf("history[%d] = %+v, want attempt %d mem-fault", i, a, i+1)
		}
	}
}

// TestHungCellReaped: a cell whose Step blocks forever is reaped by
// -cell-timeout while every other cell completes normally — the pool
// is not stalled behind it.
func TestHungCellReaped(t *testing.T) {
	progs := resilienceProgs(t)[:1]
	inj := faultinject.New(1, faultinject.Plan{
		Workload: "stream", Target: "RISC-V/GCC 12.2",
		Kind: faultinject.Hang, At: 32,
	})
	defer inj.Close() // releases the abandoned goroutine
	ex := resilienceEx(4)
	ex.CellTimeout = 100 * time.Millisecond
	ex.WrapMachine = inj.WrapMachine
	start := time.Now()
	all, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("matrix took %v; hung cell stalled the run", d)
	}
	fails := CollectFailures(all)
	if len(fails) != 1 {
		t.Fatalf("failures = %v, want exactly the hung cell", fails)
	}
	if fails[0].Target != "RISC-V/GCC 12.2" || fails[0].Reason != "deadline" {
		t.Errorf("failure = %s/%s, want RISC-V/GCC 12.2 deadline", fails[0].Target, fails[0].Reason)
	}
	healthy := 0
	for i := range all[0] {
		if !all[0][i].Failed() {
			healthy++
		}
	}
	if healthy != 3 {
		t.Errorf("healthy rows = %d, want 3", healthy)
	}
}

// TestSlowCellDeadline: a cell that still retires but too slowly blows
// its wall-clock deadline (the in-core context poll path).
func TestSlowCellDeadline(t *testing.T) {
	progs := resilienceProgs(t)[:1]
	inj := faultinject.New(1, faultinject.Plan{
		Workload: "stream", Target: "AArch64/GCC 12.2",
		Kind: faultinject.Slow, At: 1, SlowFor: time.Millisecond,
	})
	defer inj.Close()
	ex := resilienceEx(1)
	ex.CellTimeout = 50 * time.Millisecond
	ex.WrapMachine = inj.WrapMachine
	all, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	fails := CollectFailures(all)
	if len(fails) != 1 || fails[0].Reason != "deadline" {
		t.Fatalf("failures = %+v, want one deadline failure", fails)
	}
}

// TestBudgetFailure: the per-cell instruction budget marks runaway
// cells with the budget reason.
func TestBudgetFailure(t *testing.T) {
	progs := resilienceProgs(t)[:1]
	ex := resilienceEx(1)
	ex.MaxInstructions = 100 // every tiny cell retires more than this
	all, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	fails := CollectFailures(all)
	if len(fails) != 4 {
		t.Fatalf("failures = %d, want all 4 cells over budget", len(fails))
	}
	for _, f := range fails {
		if f.Reason != "budget" || f.Retired != 100 {
			t.Errorf("%s: reason=%s retired=%d, want budget/100", f.Target, f.Reason, f.Retired)
		}
	}
}

// TestFailFastReturnsRootCause: in fail-fast mode the first failure
// aborts the matrix and RunSuite's error names the faulted cell, not a
// cancellation casualty.
func TestFailFastReturnsRootCause(t *testing.T) {
	progs := resilienceProgs(t)
	inj := faultinject.New(1, faultinject.Plan{
		Workload: "lbm", Target: "RISC-V/GCC 9.2",
		Kind: faultinject.Decode, At: 16,
	})
	defer inj.Close()
	ex := resilienceEx(2)
	ex.FailFast = true
	ex.WrapMachine = inj.WrapMachine
	_, _, err := RunSuite(progs, ex)
	if err == nil {
		t.Fatal("fail-fast run must return the failure")
	}
	if !strings.Contains(err.Error(), "lbm/RISC-V/GCC 9.2") || !strings.Contains(err.Error(), "decode") {
		t.Errorf("error must name the root-cause cell and reason: %v", err)
	}
}

// TestValidateRejectsBadConfig: invalid knobs are rejected up front
// with a one-line error instead of panicking or silently misbehaving.
func TestValidateRejectsBadConfig(t *testing.T) {
	progs := resilienceProgs(t)[:1]
	cases := []struct {
		name string
		ex   Experiment
		frag string
	}{
		{"negative parallel", Experiment{Parallel: -2}, "-parallel"},
		{"negative stride", Experiment{Windowed: true, WindowStride: -8}, "-stride"},
		{"zero window size", Experiment{Windowed: true, WindowSizes: []int{0}}, "window size"},
		{"negative window size", Experiment{Windowed: true, WindowSizes: []int{128, -1}}, "window size"},
		{"negative timeout", Experiment{CellTimeout: -time.Second}, "-cell-timeout"},
		{"negative retries", Experiment{Retries: -1}, "-retries"},
		{"negative backoff", Experiment{RetryBackoff: -time.Second}, "-retry-backoff"},
		{"unknown core", Experiment{Core: "bogus"}, "-core"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.ex.Validate(); err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("Validate() = %v, want error mentioning %s", err, tc.frag)
			}
			if _, _, err := RunSuite(progs, tc.ex); err == nil {
				t.Fatal("RunSuite must reject the config too")
			}
		})
	}
	if err := (Experiment{}).Validate(); err != nil {
		t.Fatalf("zero experiment must validate: %v", err)
	}
}

// TestFailedRowRendering: FAILED cells render as FAILED(<reason>) rows
// in row-major tables and as notes under column-major ones, and the
// healthy columns survive.
func TestFailedRowRendering(t *testing.T) {
	rows := []Row{
		{Target: targetByName(t, "AArch64/GCC 9.2"), PathLen: 100, CP: 10, ILP: 10},
		{
			Target:   targetByName(t, "RISC-V/GCC 9.2"),
			Attempts: 2,
			Failure: &telemetry.FailureRecord{
				Workload: "stream", Target: "RISC-V/GCC 9.2",
				Reason: "decode", Message: "x", Attempts: 2,
			},
		},
	}
	var b strings.Builder
	WriteCritPaths(&b, "stream", rows, false)
	out := b.String()
	if !strings.Contains(out, "FAILED(decode) after 2 attempt(s)") {
		t.Errorf("Table 1 must mark the failed row:\n%s", out)
	}
	if !strings.Contains(out, "AArch64/GCC 9.2") {
		t.Errorf("healthy row missing:\n%s", out)
	}

	b.Reset()
	WritePathLengths(&b, "stream", rows)
	out = b.String()
	if !strings.Contains(out, "RISC-V/GCC 9.2: FAILED(decode) after 2 attempt(s)") {
		t.Errorf("Figure 1 must note the failed cell:\n%s", out)
	}
	if strings.Contains(out, "RISC-V/GCC 9.2%") {
		t.Errorf("failed cell must not appear as a column:\n%s", out)
	}

	if s := Summarise("stream", rows); len(s) != 0 {
		t.Errorf("summary must skip pairs with a failed side, got %+v", s)
	}
}

func targetByName(t *testing.T, name string) cc.Target {
	t.Helper()
	for _, tgt := range cc.Targets() {
		if tgt.String() == name {
			return tgt
		}
	}
	t.Fatalf("no target %q", name)
	return cc.Target{}
}
