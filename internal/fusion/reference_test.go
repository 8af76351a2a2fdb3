package fusion

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/workloads"
)

// refFuse is the reference the pass is checked against: greedy
// left-to-right pairing over the whole unbatched stream that, for each
// PC-adjacent pair with a non-branch first, tries match then merge for
// every enabled rule in priority order. It has no first-group
// dispatch, no batching and no zero-copy path.
func refFuse(cfg Config, arch isa.Arch, in []isa.Event) ([]isa.Event, Stats) {
	rules := cfg.RulesFor(arch)
	st := Stats{EventsIn: uint64(len(in))}
	var out []isa.Event
	for i := 0; i < len(in); {
		if f, r, ok := refPair(rules, in[i:]); ok {
			out = append(out, f)
			st.Hits[r]++
			i += 2
			continue
		}
		out = append(out, in[i])
		i++
	}
	st.EventsOut = uint64(len(out))
	return out, st
}

// refPair fuses evs[0] with evs[1] under the first rule whose match and
// merge both succeed.
func refPair(rules RuleSet, evs []isa.Event) (isa.Event, Rule, bool) {
	if len(evs) < 2 {
		return isa.Event{}, 0, false
	}
	a, b := &evs[0], &evs[1]
	if b.PC != a.PC+4 || a.Branch || a.Fused != 0 || b.Fused != 0 {
		return isa.Event{}, 0, false
	}
	for r := Rule(0); r < NumRules; r++ {
		var f isa.Event
		if rules.Has(r) && match(r, a, b) && merge(r, &f, a, b) {
			return f, r, true
		}
	}
	return isa.Event{}, 0, false
}

// fuseSplit runs in through a fresh pass in batches whose lengths next
// returns (the last one cut to what is left), flushes it, and returns
// what the pass delivered and its Stats.
func fuseSplit(cfg Config, arch isa.Arch, in []isa.Event, next func() int) ([]isa.Event, Stats) {
	var c capture
	p := NewPass(cfg, arch, &c)
	for i := 0; i < len(in); {
		n := min(next(), len(in)-i)
		p.Events(in[i : i+n])
		i += n
	}
	p.Flush()
	return c.evs, p.Stats()
}

// checkAgainstRef runs in through fresh passes in batches of each size
// and in batches of pseudo-random lengths from 1 to 64, and requires
// the output and Stats of every run to equal refFuse's exactly.
func checkAgainstRef(t *testing.T, name string, cfg Config, arch isa.Arch, in []isa.Event, sizes []int) {
	t.Helper()
	want, wantSt := refFuse(cfg, arch, in)
	check := func(how string, next func() int) {
		t.Helper()
		got, st := fuseSplit(cfg, arch, in, next)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s %s: output diverges from the reference at event %d (%d events, want %d)",
				name, how, i, len(got), len(want))
		}
		if st != wantSt {
			t.Fatalf("%s %s: stats %+v, reference %+v", name, how, st, wantSt)
		}
	}
	for _, size := range sizes {
		check(fmt.Sprintf("batch %d", size), func() int { return size })
	}
	rng := rand.New(rand.NewSource(int64(len(in))))
	check("random batches", func() int { return 1 + rng.Intn(64) })
}

// record compiles prog for tgt and returns the first limit events its
// run retires (every event when limit is 0).
func record(tb testing.TB, prog *ir.Program, tgt cc.Target, limit int) []isa.Event {
	tb.Helper()
	compiled, err := cc.Compile(prog, tgt)
	if err != nil {
		tb.Fatal(err)
	}
	mach, _, err := compiled.NewMachine()
	if err != nil {
		tb.Fatal(err)
	}
	var evs []isa.Event
	buf := make([]isa.Event, 4096)
	for limit == 0 || len(evs) < limit {
		n, done, err := mach.StepN(buf)
		if err != nil {
			tb.Fatal(err)
		}
		evs = append(evs, buf[:n]...)
		if done {
			break
		}
	}
	if limit > 0 && len(evs) > limit {
		evs = evs[:limit]
	}
	return evs
}

// TestPassMatchesReference diffs the pass against refFuse on every
// tiny workload × target, under rule sets that enable all rules, one
// RV64 word rule, and an A64 rule with a neutral one (inert on the
// other architecture), in one-event batches and at other sizes and
// random splits that put seams everywhere.
func TestPassMatchesReference(t *testing.T) {
	var cfgs []Config
	for _, spec := range []string{"both", "rv64:slliadd", "a64:cmpbranch,loadpair"} {
		cfg, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, prog := range workloads.Suite(workloads.Tiny) {
		for _, tgt := range cc.Targets() {
			in := record(t, prog, tgt, 0)
			for _, cfg := range cfgs {
				name := prog.Name + "/" + tgt.String() + "/" + cfg.Spec()
				checkAgainstRef(t, name, cfg, tgt.Arch, in, []int{1, 2, 3, 7, 4096})
			}
		}
	}
}

// nopSink discards every event.
type nopSink struct{}

func (nopSink) Event(*isa.Event)   {}
func (nopSink) Events([]isa.Event) {}

// BenchmarkPassEvents times Pass.Events alone, with every rule on, over
// a recorded prefix of each Small cell replayed in the emulation core's
// 4096-event batches into a no-op downstream.
func BenchmarkPassEvents(b *testing.B) {
	const prefix, batch = 1 << 16, 4096
	both, err := ParseSpec("both")
	if err != nil {
		b.Fatal(err)
	}
	for _, prog := range workloads.Suite(workloads.Small) {
		for _, tgt := range cc.Targets() {
			b.Run(prog.Name+"/"+tgt.String(), func(b *testing.B) {
				evs := record(b, prog, tgt, prefix)
				p := NewPass(both, tgt.Arch, nopSink{})
				b.ResetTimer()
				for range b.N {
					for i := 0; i < len(evs); i += batch {
						p.Events(evs[i:min(i+batch, len(evs))])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
			})
		}
	}
}
