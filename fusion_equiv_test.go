package isacmp

import (
	"bytes"
	"testing"

	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/report"
)

// eventCollector records every retired event by value — the pointed-to
// Event a sink receives is only valid for the duration of the call.
type eventCollector struct{ evs []isa.Event }

func (c *eventCollector) Event(ev *isa.Event)    { c.Events(isa.One(ev)) }
func (c *eventCollector) Events(evs []isa.Event) { c.evs = append(c.evs, evs...) }

// memBytes builds the multiset of (address, count) touched bytes for
// one side of the memory traffic — the architectural footprint a
// stream rewrite must preserve exactly.
func memBytes(evs []isa.Event, stores bool) map[uint64]int {
	m := make(map[uint64]int)
	add := func(addr uint64, size uint8) {
		for i := uint64(0); i < uint64(size); i++ {
			m[addr+i]++
		}
	}
	for _, ev := range evs {
		if stores {
			add(ev.StoreAddr, ev.StoreSize)
		} else {
			add(ev.LoadAddr, ev.LoadSize)
			add(ev.Load2Addr, ev.Load2Size)
		}
	}
	return m
}

func equalMemBytes(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestFusionDifferentialEquivalence runs every workload x target cell
// at tiny scale, rewrites the recorded retirement stream through the
// fusion pass with every rule live, and checks the rewrite changed
// nothing architectural: expanding each fused pair back to (PC, PC+4)
// reproduces the original retirement-order PC sequence exactly, and
// the load/store byte footprints are identical multisets. It also
// pins the headline claim: on STREAM and LBM the RV64 load-pair and
// slli+add rules both fire and the effective path length drops.
func TestFusionDifferentialEquivalence(t *testing.T) {
	cfg := fusion.Config{RV64: true, A64: true, Rules: fusion.AllRules}
	rv64Hits := map[string]*fusion.Stats{}
	for _, prog := range Suite(Tiny) {
		for _, tgt := range Targets() {
			bin, err := Compile(prog, tgt)
			if err != nil {
				t.Fatal(err)
			}
			base := &eventCollector{}
			stats, err := bin.Run(base)
			if err != nil {
				t.Fatal(err)
			}
			fused := &eventCollector{}
			pass := fusion.NewPass(cfg, tgt.Arch, fused)
			// Deliver in fixed-size batches so the cross-batch carry is
			// exercised on real streams, not just hand-built ones.
			const batch = 1024
			for i := 0; i < len(base.evs); i += batch {
				end := i + batch
				if end > len(base.evs) {
					end = len(base.evs)
				}
				pass.Events(base.evs[i:end])
			}
			pass.Flush()
			st := pass.Stats()
			cell := prog.Name + "/" + tgt.String()

			if st.EventsIn != uint64(len(base.evs)) || st.EventsIn != stats.Instructions {
				t.Fatalf("%s: events in %d, baseline events %d, retired %d",
					cell, st.EventsIn, len(base.evs), stats.Instructions)
			}
			if st.EventsOut != uint64(len(fused.evs)) {
				t.Fatalf("%s: stats claim %d events out, sink saw %d", cell, st.EventsOut, len(fused.evs))
			}
			if got, want := uint64(len(base.evs)-len(fused.evs)), st.Pairs(); got != want {
				t.Fatalf("%s: stream shrank by %d but %d pairs fused", cell, got, want)
			}

			// Retirement-order PCs modulo fused pairs.
			var pcs []uint64
			for _, ev := range fused.evs {
				pcs = append(pcs, ev.PC)
				if ev.Fused == 2 {
					pcs = append(pcs, ev.PC+4)
				}
			}
			if len(pcs) != len(base.evs) {
				t.Fatalf("%s: expanded stream has %d PCs, baseline %d", cell, len(pcs), len(base.evs))
			}
			for i, pc := range pcs {
				if pc != base.evs[i].PC {
					t.Fatalf("%s: PC sequence diverges at %d: fused %#x, baseline %#x", cell, i, pc, base.evs[i].PC)
				}
			}

			// Architectural memory side effects.
			if !equalMemBytes(memBytes(base.evs, true), memBytes(fused.evs, true)) {
				t.Fatalf("%s: store byte footprint changed", cell)
			}
			if !equalMemBytes(memBytes(base.evs, false), memBytes(fused.evs, false)) {
				t.Fatalf("%s: load byte footprint changed", cell)
			}

			if tgt.Arch == RV64 {
				cur := rv64Hits[prog.Name]
				if cur == nil {
					cur = &fusion.Stats{}
					rv64Hits[prog.Name] = cur
				}
				cur.EventsIn += st.EventsIn
				cur.EventsOut += st.EventsOut
				for r := range st.Hits {
					cur.Hits[r] += st.Hits[r]
				}
			}
		}
	}

	for _, name := range []string{"stream", "lbm"} {
		st := rv64Hits[name]
		if st == nil {
			t.Fatalf("no RV64 cells ran for %s", name)
		}
		if st.Hits[fusion.RuleLoadPair] == 0 {
			t.Errorf("%s/RV64: load-pair rule never fired", name)
		}
		if st.Hits[fusion.RuleSlliAdd] == 0 {
			t.Errorf("%s/RV64: slli+add rule never fired", name)
		}
		if st.EventsOut >= st.EventsIn {
			t.Errorf("%s/RV64: effective path length did not drop (%d -> %d)", name, st.EventsIn, st.EventsOut)
		}
	}
}

// TestFusionInstrumentedWiring ties the Experiment.Fusion plumbing to
// the standalone stream rewrite: the fusion block of a runner row must
// report exactly the event counts the pass produces on the recorded
// stream, the architectural path length must be unchanged by fusion,
// and the off-row must carry no fusion block at all.
func TestFusionInstrumentedWiring(t *testing.T) {
	prog := Workload("stream", Tiny)
	tgt := Target{Arch: RV64, Flavor: GCC12}
	bin, err := Compile(prog, tgt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fusion.Config{RV64: true, Rules: fusion.AllRules}

	base := &eventCollector{}
	if _, err := bin.Run(base); err != nil {
		t.Fatal(err)
	}
	fused := &eventCollector{}
	pass := fusion.NewPass(cfg, RV64, fused)
	pass.Events(base.evs)
	pass.Flush()
	want := pass.Stats()

	cell := func(ex report.Experiment) report.Row {
		ex.PathLength, ex.CritPath, ex.Columns = true, true, []Target{tgt}
		all, _, err := report.RunSuite([]*ir.Program{prog}, ex)
		if err != nil {
			t.Fatal(err)
		}
		return all[0][0]
	}
	for _, parallel := range []int{1, 4} {
		off := cell(report.Experiment{Parallel: parallel})
		if off.Fusion != nil {
			t.Fatalf("parallel=%d: fusion-off row carries a fusion block: %+v", parallel, off.Fusion)
		}
		on := cell(report.Experiment{Fusion: cfg, Parallel: parallel})
		if on.Fusion == nil {
			t.Fatalf("parallel=%d: fusion-on row missing its fusion block", parallel)
		}
		if on.Fusion.EventsIn != want.EventsIn || on.Fusion.EventsOut != want.EventsOut {
			t.Fatalf("parallel=%d: wired pass saw %d -> %d events, standalone rewrite %d -> %d",
				parallel, on.Fusion.EventsIn, on.Fusion.EventsOut, want.EventsIn, want.EventsOut)
		}
		if on.Fusion.Spec != cfg.Spec() {
			t.Fatalf("parallel=%d: fusion spec %q, want %q", parallel, on.Fusion.Spec, cfg.Spec())
		}
		// Fusion rewrites the analysis stream, not the architecture: the
		// reported path length stays the architectural count.
		if off.PathLen != on.PathLen {
			t.Fatalf("parallel=%d: fusion changed the architectural path length: %d vs %d",
				parallel, off.PathLen, on.PathLen)
		}
		for _, r := range on.Fusion.Rules {
			var ruleHits uint64
			for rr := fusion.Rule(0); rr < fusion.NumRules; rr++ {
				if rr.String() == r.Rule {
					ruleHits = want.Hits[rr]
				}
			}
			if r.Hits != ruleHits {
				t.Fatalf("parallel=%d: rule %s reported %d hits, standalone rewrite %d", parallel, r.Rule, r.Hits, ruleHits)
			}
		}
	}
}

// TestFusionUnbatchedByteIdentical: the batched StepN delivery and an
// unbatched run, each event reaching fusion.Pass in a batch of its own,
// must produce byte-identical reports and manifests with fusion live —
// the cross-batch carry makes the rewrite batching-invariant on the
// real matrix, not just in unit tests.
func TestFusionUnbatchedByteIdentical(t *testing.T) {
	ex := report.Experiment{
		PathLength: true, CritPath: true, Scaled: true, Windowed: true,
		Fusion: fusion.Config{RV64: true, A64: true, Rules: fusion.AllRules},
	}
	hotText, hotManifest := matrixArtifactsEx(t, ex)
	stepText, stepManifest := matrixArtifactsEx(t, unbatched(ex))
	if !bytes.Equal(hotText, stepText) {
		t.Fatal("fusion on: unbatched report text differs from batched")
	}
	if !bytes.Equal(hotManifest, stepManifest) {
		t.Fatal("fusion on: unbatched canonicalized manifest differs from batched")
	}
}

// TestFusionParallelByteIdentical extends the -parallel determinism
// contract to fusion-on runs: the rewritten stream must feed the
// fan-out's analyses on 2, 5 and 64 workers exactly as it feeds the
// sequential tee.
func TestFusionParallelByteIdentical(t *testing.T) {
	ex := report.Experiment{
		PathLength: true, CritPath: true, Scaled: true, Windowed: true,
		Fusion:   fusion.Config{RV64: true, A64: true, Rules: fusion.AllRules},
		Parallel: 1,
	}
	seqText, seqManifest := matrixArtifactsEx(t, ex)
	for _, workers := range []int{2, 5, 64} {
		par := ex
		par.Parallel = workers
		parText, parManifest := matrixArtifactsEx(t, par)
		if !bytes.Equal(seqText, parText) {
			t.Fatalf("fusion on, parallel=%d: report text differs from sequential", workers)
		}
		if !bytes.Equal(seqManifest, parManifest) {
			t.Fatalf("fusion on, parallel=%d: canonicalized manifest differs from sequential", workers)
		}
	}
}
