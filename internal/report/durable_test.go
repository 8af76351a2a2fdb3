package report

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"isacmp/internal/durable"
	"isacmp/internal/faultinject"
	"isacmp/internal/ir"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// The acceptance tests for the durability layer: a run interrupted at
// any point — lost cache entries, a SIGKILLed process — must rerun to
// a manifest and report text byte-identical to the uninterrupted run,
// a warm cache must recompute zero cells, and the drain signal must
// interrupt a pending retry backoff immediately.

// durableEx is the reference experiment for the identity tests:
// sequential (so registry counter creation order is deterministic and
// whole-manifest byte comparison is meaningful) with a metrics
// registry attached, exercising the transactional counter replay.
func durableEx() Experiment {
	return Experiment{
		PathLength: true, CritPath: true, Scaled: true,
		Parallel: 1, Metrics: telemetry.NewRegistry(),
	}
}

// canonManifest renders the suite result as a canonicalized manifest
// plus the text report — the two byte-identity currencies of the
// resume contract.
func canonManifest(t *testing.T, progs []*ir.Program, all [][]Row) (string, string) {
	t.Helper()
	m := telemetry.NewManifest("durable-test", "tiny")
	var text bytes.Buffer
	for i, p := range progs {
		WritePathLengths(&text, p.Name, all[i])
		WriteCritPaths(&text, p.Name, all[i], false)
		AppendRows(m, p.Name, all[i])
	}
	m.Failures = CollectFailures(all)
	m.Canonicalize()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), text.String()
}

// withDurable returns ex with drun attached.
func withDurable(ex Experiment, drun *durable.Run) Experiment {
	ex.Durable = drun
	return ex
}

// runDurable runs the suite with a durable handle attached and returns
// the canonical manifest, report text and durability stats.
func runDurable(t *testing.T, progs []*ir.Program, ex Experiment, drun *durable.Run) (string, string, durable.Stats) {
	t.Helper()
	all, _, err := RunSuite(progs, withDurable(ex, drun))
	if err != nil {
		t.Fatal(err)
	}
	manifest, text := canonManifest(t, progs, all)
	return manifest, text, drun.Stats()
}

// cacheEntries lists the cache entries a run directory holds, in
// path order.
func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(durable.CachePath(dir), "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestDurableResumeAfterLostEntries loses every other cache entry of a
// finished run, then reruns over the directory: the served-plus-
// recomputed run must be byte-identical to the uninterrupted one,
// manifest and report text both.
func TestDurableResumeAfterLostEntries(t *testing.T) {
	progs := resilienceProgs(t)
	clean, _, err := RunSuite(progs, durableEx())
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText := canonManifest(t, progs, clean)

	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, st := runDurable(t, progs, durableEx(), drun); st.Computed != 8 {
		t.Fatalf("first run computed %d cells, want 8", st.Computed)
	}
	entries := cacheEntries(t, dir)
	if len(entries) != 8 {
		t.Fatalf("cache holds %d entries, want 8", len(entries))
	}
	for i := 0; i < len(entries); i += 2 {
		if err := os.Remove(entries[i]); err != nil {
			t.Fatal(err)
		}
	}

	rerun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotManifest, gotText, st := runDurable(t, progs, durableEx(), rerun)
	if st.Cached != 4 || st.Computed != 4 {
		t.Fatalf("stats = %+v, want 4 cells served and 4 recomputed", st)
	}
	if gotManifest != wantManifest {
		t.Errorf("rerun manifest drifted from uninterrupted run:\n got %s\nwant %s", gotManifest, wantManifest)
	}
	if gotText != wantText {
		t.Errorf("rerun report text drifted from uninterrupted run:\n got %s\nwant %s", gotText, wantText)
	}
}

// TestDurableRejectedEntryCountedOnce overwrites one entry of a 4-cell
// run with a payload that parses but names another target: the rerun
// rejects it and recomputes that cell, so it counts as computed alone,
// and the stats add up to the 4 cells served or filed.
func TestDurableRejectedEntryCountedOnce(t *testing.T) {
	progs := resilienceProgs(t)[:1]
	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText, _ := runDurable(t, progs, durableEx(), drun)
	entries := cacheEntries(t, dir)
	if len(entries) != 4 {
		t.Fatalf("cache holds %d entries, want 4", len(entries))
	}
	if err := os.WriteFile(entries[0], []byte(`{"target":"nonsense"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	rerun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotManifest, gotText, st := runDurable(t, progs, durableEx(), rerun)
	if st.Cached != 3 || st.Computed != 1 {
		t.Fatalf("stats = %+v, want 3 cells served and 1 recomputed", st)
	}
	if gotManifest != wantManifest || gotText != wantText {
		t.Error("rerun output drifted from the original run")
	}
}

// TestDurableWarmCacheZeroRecompute pins the content-cache contract: a
// second Open of the same directory serves every cell from cache,
// recomputes zero, and still produces byte-identical output.
func TestDurableWarmCacheZeroRecompute(t *testing.T) {
	progs := resilienceProgs(t)
	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText, _ := runDurable(t, progs, durableEx(), drun)

	warm, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotManifest, gotText, st := runDurable(t, progs, durableEx(), warm)
	if st.Computed != 0 {
		t.Errorf("warm-cache run computed %d cells, want 0", st.Computed)
	}
	if st.Cached != 8 {
		t.Errorf("warm-cache run served %d cells from cache, want 8", st.Cached)
	}
	if gotManifest != wantManifest || gotText != wantText {
		t.Error("warm-cache run output drifted from computed run")
	}
}

// TestDurableCoreModelNotServed: the core and cache models are part of
// a cell's content address. A warm cache left by an emulation run must
// not serve a run on the out-of-order model, nor an uncached ooo run
// one with the L1D attached; and a traced run, whose trace cannot be
// replayed, is neither served nor cached.
func TestDurableCoreModelNotServed(t *testing.T) {
	progs := resilienceProgs(t)
	dir := t.TempDir()
	run := func(ex Experiment) ([][]Row, durable.Stats) {
		drun, err := durable.Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		ex.Mix, ex.Parallel, ex.Durable = true, 1, drun
		all, _, err := RunSuite(progs, ex)
		if err != nil {
			t.Fatal(err)
		}
		return all, drun.Stats()
	}
	if _, st := run(Experiment{}); st.Computed != 8 {
		t.Fatalf("emulation run computed %d cells, want 8", st.Computed)
	}
	for _, ex := range []Experiment{{Core: "ooo"}, {Core: "ooo", Cache: true}} {
		all, st := run(ex)
		if st.Cached != 0 || st.Computed != 8 {
			t.Errorf("core %q cache %t: stats %+v, want 8 computed and none served", ex.Core, ex.Cache, st)
		}
		if r := all[0][0]; r.Core.Model != "ooo" || (r.Core.CacheHits > 0) != ex.Cache {
			t.Errorf("core %q cache %t: row core block %+v", ex.Core, ex.Cache, r.Core)
		}
	}
	traced := Experiment{Core: "ooo", Trace: func() *telemetry.PipelineTrace { return telemetry.NewPipelineTrace(16, 1) }}
	all, st := run(traced)
	if st.Cached != 0 || st.Computed != 0 {
		t.Errorf("traced run: stats %+v, want no cell served or cached", st)
	}
	if all[0][0].Trace == nil {
		t.Error("traced run returned no trace")
	}
}

// TestDurableOffIdentity pins that arming durability changes no output
// byte relative to a plain run — the durability-off byte-identity
// contract.
func TestDurableOffIdentity(t *testing.T) {
	progs := resilienceProgs(t)
	plain, _, err := RunSuite(progs, durableEx())
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText := canonManifest(t, progs, plain)

	drun, err := durable.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotManifest, gotText, _ := runDurable(t, progs, durableEx(), drun)
	if gotManifest != wantManifest || gotText != wantText {
		t.Error("durable run output drifted from plain run")
	}
}

// TestDurableHashMismatchReruns changes the analysis spec between two
// runs over one directory: the spec is part of every cell's content
// address, so every cell misses the cache and is recomputed, and its
// output equals a plain run of the changed spec.
func TestDurableHashMismatchReruns(t *testing.T) {
	progs := resilienceProgs(t)
	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	runDurable(t, progs, durableEx(), drun)

	ex := durableEx()
	ex.Windowed = true // spec change: every content address moves
	plain, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText := canonManifest(t, progs, plain)
	rerun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex = durableEx()
	ex.Windowed = true
	gotManifest, gotText, st := runDurable(t, progs, ex, rerun)
	if st.Cached != 0 || st.Computed != 8 {
		t.Errorf("stats = %+v, want every cell recomputed", st)
	}
	if n := len(cacheEntries(t, dir)); n != 16 {
		t.Errorf("cache holds %d entries, want 16 (8 per spec)", n)
	}
	if gotManifest != wantManifest || gotText != wantText {
		t.Error("changed-spec run output drifted from a plain run of that spec")
	}
}

// TestDurableFailureRecomputes pins that failures are never cached: a
// cell that dies with an injected decode fault is not filed, and a
// rerun serves the other seven, recomputes that one (which fails the
// same way again), and prints the original output.
func TestDurableFailureRecomputes(t *testing.T) {
	progs := resilienceProgs(t)
	inj := faultinject.New(1,
		faultinject.Plan{Workload: "stream", Target: "RISC-V/GCC 9.2", Kind: faultinject.Decode, At: 100})
	defer inj.Close()
	ex := durableEx()
	ex.WrapMachine = inj.WrapMachine
	ex.WrapSink = inj.WrapSink

	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText, st := runDurable(t, progs, ex, drun)
	if st.Computed != 7 {
		t.Fatalf("first run filed %d cells, want the 7 that finished", st.Computed)
	}
	if n := len(cacheEntries(t, dir)); n != 7 {
		t.Fatalf("cache holds %d entries, want 7 (no failure)", n)
	}

	rerun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := RunSuite(progs, withDurable(ex, rerun))
	if err != nil {
		t.Fatal(err)
	}
	if st := rerun.Stats(); st.Cached != 7 || st.Computed != 0 {
		t.Errorf("stats = %+v, want 7 cells served and the failure recomputed, not filed", st)
	}
	fails := CollectFailures(all)
	if len(fails) != 1 || fails[0].Reason != "decode" || fails[0].Target != "RISC-V/GCC 9.2" {
		t.Fatalf("rerun failures = %+v, want the recomputed decode fault", fails)
	}
	gotManifest, gotText := canonManifest(t, progs, all)
	if gotManifest != wantManifest || gotText != wantText {
		t.Error("rerun output drifted from the original run")
	}
}

// TestDurableDrainedCellsRerun pins the drain rule: cells that never
// started because the matrix was draining are not cached, so a rerun
// recomputes exactly those cells.
func TestDurableDrainedCellsRerun(t *testing.T) {
	progs := resilienceProgs(t)
	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	drain, cancel := context.WithCancel(context.Background())
	cancel() // draining before the first cell starts
	ex := durableEx()
	ex.Drain = drain
	all, _, err := RunSuite(progs, withDurable(ex, drun))
	if err != nil {
		t.Fatal(err)
	}
	if n := CountFailures(all); n != 8 {
		t.Fatalf("drained run failures = %d, want all 8 cells", n)
	}
	for _, f := range CollectFailures(all) {
		if f.Reason != "deadline" {
			t.Errorf("%s/%s: drained reason = %s, want deadline", f.Workload, f.Target, f.Reason)
		}
	}

	rerun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, st := runDurable(t, progs, durableEx(), rerun)
	if st.Cached != 0 || st.Computed != 8 {
		t.Errorf("stats after drained run = %+v, want every cell recomputed (drained cells must not be cached)", st)
	}
}

// TestDrainInterruptsRetryBackoff is the context-aware backoff test: a
// cell that fails every attempt with a long retry backoff must abandon
// the pending sleep the moment the drain signal fires, so SIGTERM (or
// -fail-fast) is never delayed by a backoff timer.
func TestDrainInterruptsRetryBackoff(t *testing.T) {
	prog := workloads.ByName("stream", workloads.Tiny)
	if prog == nil {
		t.Fatal("stream workload missing")
	}
	inj := faultinject.New(1, faultinject.Plan{Kind: faultinject.Decode, At: 10})
	defer inj.Close()
	drain, cancel := context.WithCancel(context.Background())
	ex := Experiment{
		PathLength: true, Parallel: 1,
		Retries: 3, RetryBackoff: time.Hour,
		Drain:       drain,
		WrapMachine: inj.WrapMachine,
		WrapSink:    inj.WrapSink,
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	all, _, err := RunSuite([]*ir.Program{prog}, ex)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drained run took %v: the pending retry backoff was not interrupted", elapsed)
	}
	if n := CountFailures(all); n != 4 {
		t.Errorf("failures = %d, want all 4 cells", n)
	}
}

// TestChaosKillResume is the crash-safety acceptance test: a child
// process running the matrix with durability armed is SIGKILLed at a
// randomized point. Every cache entry it left must be a whole row, the
// rerun over the directory must serve exactly those entries and
// compute the rest, and its output must be byte-identical to an
// uninterrupted run — manifest and report text both. Whatever the
// kill hits (before the first entry, mid-run, after completion), the
// contract is the same.
func TestChaosKillResume(t *testing.T) {
	progs := resilienceProgs(t)
	clean, _, err := RunSuite(progs, durableEx())
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText := canonManifest(t, progs, clean)

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestChaosChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "ISACMP_CHAOS_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	delay := time.Duration(rand.Int63n(int64(150 * time.Millisecond)))
	time.Sleep(delay)
	cmd.Process.Kill() // SIGKILL: no deferred cleanup
	cmd.Wait()

	entries := cacheEntries(t, dir)
	t.Logf("killed chaos child after %v; it left %d cache entries", delay, len(entries))
	for _, p := range entries {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var row Row
		if err := json.Unmarshal(data, &row); err != nil || row.Failed() || row.Core.Instructions == 0 {
			t.Errorf("cache entry %s is not a whole row (err %v): %.80s", filepath.Base(p), err, data)
		}
	}

	rerun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotManifest, gotText, st := runDurable(t, progs, durableEx(), rerun)
	t.Logf("rerun stats: %+v", st)
	if st.Cached != len(entries) || st.Cached+st.Computed != 8 {
		t.Errorf("stats = %+v, want %d cells served and cached+computed == 8", st, len(entries))
	}
	if gotManifest != wantManifest {
		t.Errorf("post-kill rerun manifest drifted from uninterrupted run:\n got %s\nwant %s", gotManifest, wantManifest)
	}
	if gotText != wantText {
		t.Errorf("post-kill rerun report text drifted from uninterrupted run:\n got %s\nwant %s", gotText, wantText)
	}
}

// TestChaosChildProcess is the helper body TestChaosKillResume
// re-executes and SIGKILLs; it runs the reference matrix with
// durability armed and is skipped in a normal test run.
func TestChaosChildProcess(t *testing.T) {
	dir := os.Getenv("ISACMP_CHAOS_DIR")
	if dir == "" {
		t.Skip("chaos child helper; spawned by TestChaosKillResume")
	}
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSuite(resilienceProgs(t), withDurable(durableEx(), drun)); err != nil {
		t.Fatal(err)
	}
}
