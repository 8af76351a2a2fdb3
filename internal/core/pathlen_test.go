package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"isacmp/internal/elfio"
	"isacmp/internal/isa"
)

// refPathLength is the naive reference for PathLength: it attributes
// each event as it arrives, from a cache of the last region hit or a
// binary search over the sorted region starts.
type refPathLength struct {
	starts, ends []uint64
	names        []string
	counts       []uint64
	other, total uint64
	last         int
}

func newRefPathLength(syms []elfio.Symbol) *refPathLength {
	p := &refPathLength{}
	sorted := append([]elfio.Symbol(nil), syms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Value < sorted[j].Value })
	for i, s := range sorted {
		end := s.Value + s.Size
		if s.Size == 0 {
			if i+1 < len(sorted) {
				end = sorted[i+1].Value
			} else {
				end = ^uint64(0)
			}
		}
		p.starts = append(p.starts, s.Value)
		p.ends = append(p.ends, end)
		p.names = append(p.names, s.Name)
	}
	p.counts = make([]uint64, len(p.starts))
	return p
}

func (p *refPathLength) Event(ev *isa.Event) {
	p.total++
	if p.last < len(p.starts) && ev.PC >= p.starts[p.last] && ev.PC < p.ends[p.last] {
		p.counts[p.last]++
		return
	}
	i := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] > ev.PC })
	if i > 0 && ev.PC < p.ends[i-1] {
		p.last = i - 1
		p.counts[i-1]++
		return
	}
	p.other++
}

func (p *refPathLength) Counts() []RegionCount {
	out := make([]RegionCount, len(p.names))
	for i := range p.names {
		out[i] = RegionCount{Name: p.names[i], Count: p.counts[i]}
	}
	return out
}

// Count returns the reference count of the first region named name.
func (p *refPathLength) Count(name string) uint64 {
	for i, n := range p.names {
		if n == name {
			return p.counts[i]
		}
	}
	return 0
}

// randSymbols returns n non-overlapping symbols in random order: bounds
// at any byte, gaps between some of them, zero sizes (which extend to
// the next symbol, or for the last one to the top of the address
// space), and with wide set, a gap far beyond maxSlots.
func randSymbols(r *rand.Rand, n int, wide bool) []elfio.Symbol {
	at := uint64(0x1000 + r.Intn(16))
	syms := make([]elfio.Symbol, n)
	for i := range syms {
		size := uint64(1 + r.Intn(64))
		if r.Intn(4) == 0 {
			size = 0
		}
		syms[i] = elfio.Symbol{Name: fmt.Sprintf("k%d", i), Value: at, Size: size}
		at += max(size, 1) + uint64(r.Intn(3)*r.Intn(24))
		if wide && i == n/2 {
			at += 16 * maxSlots
		}
	}
	r.Shuffle(n, func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
	return syms
}

// randPCs returns n PCs around the symbols: inside them, in the gaps,
// before and after the span, misaligned, and near the top of the
// address space. Runs of one PC repeat, as loops do.
func randPCs(r *rand.Rand, syms []elfio.Symbol, n int) []uint64 {
	pcs := make([]uint64, 0, n)
	for len(pcs) < n {
		var pc uint64
		switch k := r.Intn(10); {
		case k < 6 && len(syms) > 0:
			s := syms[r.Intn(len(syms))]
			pc = s.Value + s.Size + uint64(r.Intn(16)) - 8
			if s.Size > 0 && r.Intn(2) == 0 {
				pc = s.Value + uint64(r.Int63n(int64(s.Size)))
			}
			if r.Intn(3) > 0 {
				pc &^= 3
			}
		case k < 7:
			pc = uint64(r.Intn(0x1100))
		case k < 8:
			pc = ^uint64(0) - uint64(r.Intn(8))
		default:
			pc = uint64(r.Int63()) &^ 3
		}
		for reps := 1 + r.Intn(4); reps > 0 && len(pcs) < n; reps-- {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// TestPathLengthMatchesReference diffs PathLength's per-PC slots
// against the per-event search on random symbol tables and streams,
// through Event and through batches of Events, reading the results in
// the middle of the stream and again at its end.
func TestPathLengthMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		syms := randSymbols(r, r.Intn(8), seed%5 == 4)
		pcs := randPCs(r, syms, 2000)
		evs := make([]isa.Event, len(pcs))
		for i, pc := range pcs {
			evs[i].PC = pc
		}
		ref := newRefPathLength(syms)
		single, batched := NewPathLength(syms), NewPathLength(syms)
		check := func(at int) {
			t.Helper()
			for _, p := range []*PathLength{single, batched} {
				if got, want := p.Counts(), ref.Counts(); !slices.Equal(got, want) {
					t.Fatalf("seed %d, %d events: Counts %v, want %v", seed, at, got, want)
				}
				if p.Other() != ref.other || p.Total() != ref.total {
					t.Fatalf("seed %d, %d events: Other %d Total %d, want %d %d",
						seed, at, p.Other(), p.Total(), ref.other, ref.total)
				}
				for i, name := range ref.names {
					if got := p.Count(name); got != ref.Count(name) {
						t.Fatalf("seed %d, %d events: Count(%q) = %d, want %d (region %d)", seed, at, name, got, ref.Count(name), i)
					}
				}
			}
		}
		for at := 0; at < len(evs); {
			n := min(1+r.Intn(300), len(evs)-at)
			batch := evs[at : at+n]
			for i := range batch {
				ref.Event(&batch[i])
				single.Event(&batch[i])
			}
			batched.Events(batch)
			if at += n; r.Intn(4) == 0 || at == len(evs) {
				check(at)
			}
		}
	}
}

// TestPathLengthEventsZeroAlloc pins the batch path's steady state at
// zero allocations.
func TestPathLengthEventsZeroAlloc(t *testing.T) {
	syms := []elfio.Symbol{{Name: "a", Value: 0x1000, Size: 0x40}, {Name: "b", Value: 0x1040}}
	evs := make([]isa.Event, 4096)
	for i := range evs {
		evs[i].PC = 0x1000 + uint64(i%64)*4
	}
	p := NewPathLength(syms)
	if allocs := testing.AllocsPerRun(100, func() { p.Events(evs) }); allocs != 0 {
		t.Fatalf("PathLength.Events allocated %.1f times per batch", allocs)
	}
}
