package fusion

import (
	"slices"
	"testing"

	"isacmp/internal/isa"
)

// FuzzFusionStream feeds the pass pseudo-random but well-formed event
// streams, chopped into pseudo-random batches and into one-event
// batches, and requires the output and Stats of both to equal
// refFuse's exactly. It also checks the rule-independent invariants:
//
//   - the event count never increases, and stats agree with it;
//   - every unfused output event is byte-identical to its input;
//   - every fused output event stands for exactly the next two input
//     events, which are PC-adjacent with a non-branch first — i.e.
//     fusion never crosses a basic-block boundary;
//   - a fused event's register destinations are the union of the
//     pair's, and its sources are the union minus edges internal to
//     the pair;
//   - memory byte coverage (loads and stores separately) is preserved
//     through the merge.
func FuzzFusionStream(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x20, 0x00, 0x01, 0x11, 0x21, 0x08})
	f.Add([]byte{0x02, 0x05, 0x06, 0x00, 0x03, 0x1f, 0x1c, 0x03, 0x04, 0x06, 0x00, 0x02})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := synthesize(data)

		// Chop the stream into batches whose lengths are driven by the
		// fuzz input, so seams land everywhere.
		k := 0
		out, st := fuseSplit(allRV, isa.RV64, in, func() int {
			if len(data) == 0 {
				return 1
			}
			n := int(data[k%len(data)])%5 + 1
			k++
			return n
		})

		want, wantSt := refFuse(allRV, isa.RV64, in)
		if !slices.Equal(out, want) || st != wantSt {
			t.Fatalf("batched output or stats differ from the reference: %+v vs %+v", st, wantSt)
		}
		one, oneSt := fuseSplit(allRV, isa.RV64, in, func() int { return 1 })
		if !slices.Equal(one, want) || oneSt != wantSt {
			t.Fatalf("one-event batches' output or stats differ from the reference: %+v vs %+v", oneSt, wantSt)
		}

		if len(out) > len(in) {
			t.Fatalf("event count grew: %d -> %d", len(in), len(out))
		}
		if st.EventsIn != uint64(len(in)) || st.EventsOut != uint64(len(out)) {
			t.Fatalf("stats disagree with stream: %+v vs in=%d out=%d", st, len(in), len(out))
		}
		if uint64(len(in)-len(out)) != st.Pairs() {
			t.Fatalf("pair count: %d events removed, %d hits", len(in)-len(out), st.Pairs())
		}

		j := 0
		for oi := range out {
			ev := &out[oi]
			switch ev.Fused {
			case 0:
				if j >= len(in) || *ev != in[j] {
					t.Fatalf("output %d: unfused event differs from input %d", oi, j)
				}
				j++
			case 2:
				if j+1 >= len(in) {
					t.Fatalf("output %d: fused event overruns input", oi)
				}
				a, b := &in[j], &in[j+1]
				if ev.PC != a.PC || b.PC != a.PC+4 {
					t.Fatalf("fused pair not PC-adjacent: %#x %#x %#x", ev.PC, a.PC, b.PC)
				}
				if a.Branch {
					t.Fatalf("fused across basic-block boundary at %#x", a.PC)
				}
				checkDepUnion(t, ev, a, b)
				checkMemCoverage(t, ev, a, b)
				j += 2
			default:
				t.Fatalf("output %d: bad Fused=%d", oi, ev.Fused)
			}
		}
		if j != len(in) {
			t.Fatalf("output accounts for %d of %d input events", j, len(in))
		}
	})
}

// checkDepUnion verifies dsts(f) == dsts(a) ∪ dsts(b) and
// srcs(f) == srcs(a) ∪ (srcs(b) − dsts(a)).
func checkDepUnion(t *testing.T, f, a, b *isa.Event) {
	t.Helper()
	for k := uint8(0); k < a.NDsts; k++ {
		if !writesReg(f, a.Dsts[k]) {
			t.Fatalf("fused at %#x lost dst %v of first", f.PC, a.Dsts[k])
		}
	}
	for k := uint8(0); k < b.NDsts; k++ {
		if !writesReg(f, b.Dsts[k]) {
			t.Fatalf("fused at %#x lost dst %v of second", f.PC, b.Dsts[k])
		}
	}
	for k := uint8(0); k < f.NDsts; k++ {
		if !writesReg(a, f.Dsts[k]) && !writesReg(b, f.Dsts[k]) {
			t.Fatalf("fused at %#x invented dst %v", f.PC, f.Dsts[k])
		}
	}
	for k := uint8(0); k < a.NSrcs; k++ {
		if !readsReg(f, a.Srcs[k]) {
			t.Fatalf("fused at %#x lost src %v of first", f.PC, a.Srcs[k])
		}
	}
	for k := uint8(0); k < b.NSrcs; k++ {
		if writesReg(a, b.Srcs[k]) {
			continue // internal edge, correctly dropped
		}
		if !readsReg(f, b.Srcs[k]) {
			t.Fatalf("fused at %#x lost src %v of second", f.PC, b.Srcs[k])
		}
	}
	for k := uint8(0); k < f.NSrcs; k++ {
		r := f.Srcs[k]
		if !readsReg(a, r) && !(readsReg(b, r) && !writesReg(a, r)) {
			t.Fatalf("fused at %#x invented src %v", f.PC, r)
		}
	}
}

// checkMemCoverage verifies the fused event touches exactly the bytes
// the pair touched, loads and stores separately.
func checkMemCoverage(t *testing.T, f, a, b *isa.Event) {
	t.Helper()
	cover := func(m map[uint64]int, addr uint64, size uint8, d int) {
		for i := uint64(0); i < uint64(size); i++ {
			m[addr+i] += d
		}
	}
	loads := map[uint64]int{}
	cover(loads, a.LoadAddr, a.LoadSize, 1)
	cover(loads, a.Load2Addr, a.Load2Size, 1)
	cover(loads, b.LoadAddr, b.LoadSize, 1)
	cover(loads, b.Load2Addr, b.Load2Size, 1)
	cover(loads, f.LoadAddr, f.LoadSize, -1)
	cover(loads, f.Load2Addr, f.Load2Size, -1)
	for addr, n := range loads {
		if n > 0 {
			t.Fatalf("fused at %#x lost load byte %#x", f.PC, addr)
		}
		if n < 0 {
			t.Fatalf("fused at %#x invented load byte %#x", f.PC, addr)
		}
	}
	stores := map[uint64]int{}
	cover(stores, a.StoreAddr, a.StoreSize, 1)
	cover(stores, b.StoreAddr, b.StoreSize, 1)
	cover(stores, f.StoreAddr, f.StoreSize, -1)
	for addr, n := range stores {
		if n != 0 {
			t.Fatalf("fused at %#x store byte %#x off by %d", f.PC, addr, n)
		}
	}
}

// synthesize builds a well-formed event stream from fuzz bytes: PCs
// advance by 4 (branches occasionally jump), registers and addresses
// come from the input, and the ALU kinds carry genuine RV64 encodings
// so every word rule can fire.
func synthesize(data []byte) []isa.Event {
	var evs []isa.Event
	pc := uint64(0x1000)
	next := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	for i := 0; i+3 < len(data) && len(evs) < 512; i += 4 {
		kind := data[i] % 8
		r1 := uint32(data[i+1]%31) + 1 // x1..x31, never x0
		r2 := uint32(data[i+2]%31) + 1
		addr := 0x8000 + uint64(data[i+3])*8
		sizes := [4]uint8{1, 2, 4, 8}
		size := sizes[data[i+1]%4]

		var e isa.Event
		e.PC = pc
		switch kind {
		case 0, 1: // load
			e = evLoad(pc, isa.Reg(r1), isa.Reg(r2), addr, size)
			e.Word = wLD(r1, r2, uint32(data[i+3]&1)<<3)
		case 2: // store
			e = evStore(pc, isa.Reg(r1), isa.Reg(r2), addr, size)
			e.Word = wSD(r1, r2, uint32(data[i+3]&1)<<3)
		case 3: // add
			e = evALU(pc, wADD(r1, r2, uint32(next(i+5)%31)+1),
				isa.Reg(r1), isa.Reg(r2), isa.Reg(uint32(next(i+5)%31)+1))
		case 4: // slli
			e = evALU(pc, wSLLI(r1, r2, uint32(data[i+3]%5)), isa.Reg(r1), isa.Reg(r2))
		case 5: // lui
			e = evALU(pc, wLUI(r1), isa.Reg(r1))
		case 6: // addi
			e = evALU(pc, wADDI(r1, r2, uint32(data[i+3])), isa.Reg(r1), isa.Reg(r2))
		case 7: // branch
			e = evBranch(pc, data[i+3]&1 == 1, isa.Reg(r1))
		}
		evs = append(evs, e)
		if e.Branch && e.Taken {
			pc += 8 + uint64(data[i+3])*4 // jump: breaks PC adjacency
		} else {
			pc += 4
		}
	}
	return evs
}
