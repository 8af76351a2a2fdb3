package core

import (
	"math/bits"
	"sort"

	"isacmp/internal/elfio"
	"isacmp/internal/isa"
)

// PathLength counts retired instructions, attributing each to the
// source region (benchmark kernel) containing its PC. Regions come
// from ELF symbols, mirroring the paper's "path lengths for each
// benchmark broken down by kernel or basic code block" (Figure 1).
//
// An event costs one increment: PathLength keeps a retirement counter
// per 4-byte slot of its regions' address range and sums the regions
// from the slots only when Counts, Other or Count is read. A PC no slot
// holds is counted as it arrives when it lies below the first region
// or at or past the last one's start, and kept by address otherwise (a
// misaligned PC, which no ISA here retires, or one beyond maxSlots).
type PathLength struct {
	starts []uint64
	ends   []uint64
	names  []string

	slots []uint64 // retirements at base+4k, for slot k
	base  uint64
	// lo is the first region's start and limit the last one's: below
	// lo no region holds a PC, and at or past limit only the last one,
	// which ends at tailEnd (0 without regions).
	lo, limit, tailEnd uint64
	byPC               map[uint64]uint64 // retirements at PCs in [lo, limit) no slot holds
	tail               uint64            // retirements at or past limit inside the last region
	other              uint64            // retirements below lo, or at or past limit and outside
	total              uint64
}

// maxSlots caps the slot counters at 512 KiB, a quarter mebibyte of
// text; PCs of a wider symbol span past the cap are kept by address.
const maxSlots = 1 << 16

// RegionCount is one row of the per-kernel breakdown.
type RegionCount struct {
	Name  string
	Count uint64
}

// NewPathLength builds the analysis from ELF symbols in any order; it
// sorts a copy by address. Symbols with zero size extend to the next
// symbol, and the last one to the top of the address space. Where
// symbols overlap, a PC counts toward the one with the greatest start
// at or below it, if the PC lies before that symbol's end.
func NewPathLength(syms []elfio.Symbol) *PathLength {
	p := &PathLength{}
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
	if len(p.starts) == 0 {
		return p
	}
	// The slots run from the first start to the furthest end short of
	// the top of the address space, and at least to the last start.
	p.lo, p.limit, p.tailEnd = p.starts[0], p.starts[len(p.starts)-1], p.ends[len(p.ends)-1]
	hi := p.limit
	for _, end := range p.ends {
		if end != ^uint64(0) {
			hi = max(hi, end)
		}
	}
	p.base = p.lo &^ 3
	p.slots = make([]uint64, min((hi-p.base)/4+1, maxSlots))
	return p
}

// Events attributes a whole batch of retired instructions.
func (p *PathLength) Events(evs []isa.Event) {
	p.total += uint64(len(evs))
	slots, base := p.slots, p.base
	for i := range evs {
		pc := evs[i].PC
		// Rotating the offset right by two moves a misaligned PC's low
		// bits to the top, so one compare also rejects it.
		if k := bits.RotateLeft64(pc-base, -2); k < uint64(len(slots)) {
			slots[k]++
		} else {
			p.stray(pc)
		}
	}
}

// Event attributes one retired instruction.
func (p *PathLength) Event(ev *isa.Event) { p.Events(isa.One(ev)) }

// stray counts a retirement at a PC no slot holds.
func (p *PathLength) stray(pc uint64) {
	switch {
	case pc < p.lo:
		p.other++
	case pc >= p.limit:
		if pc < p.tailEnd {
			p.tail++
		} else {
			p.other++
		}
	default:
		if p.byPC == nil {
			p.byPC = make(map[uint64]uint64)
		}
		p.byPC[pc]++
	}
}

// region returns the index of the region containing pc, or -1.
func (p *PathLength) region(pc uint64) int {
	i := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] > pc })
	if i > 0 && pc < p.ends[i-1] {
		return i - 1
	}
	return -1
}

// fold sums the slot and by-address counters into per-region counts
// and the retirements outside every region.
func (p *PathLength) fold() (counts []uint64, other uint64) {
	counts = make([]uint64, len(p.names))
	other = p.other
	add := func(pc, n uint64) {
		if r := p.region(pc); r >= 0 {
			counts[r] += n
		} else {
			other += n
		}
	}
	for k, n := range p.slots {
		if n != 0 {
			add(p.base+4*uint64(k), n)
		}
	}
	for pc, n := range p.byPC {
		add(pc, n)
	}
	if p.tail != 0 {
		counts[len(counts)-1] += p.tail
	}
	return counts, other
}

// Total returns the full dynamic instruction count (the path length).
func (p *PathLength) Total() uint64 { return p.total }

// Other returns instructions outside any named region.
func (p *PathLength) Other() uint64 {
	_, other := p.fold()
	return other
}

// Counts returns the per-region breakdown in address order.
func (p *PathLength) Counts() []RegionCount {
	counts, _ := p.fold()
	out := make([]RegionCount, len(p.names))
	for i := range p.names {
		out[i] = RegionCount{Name: p.names[i], Count: counts[i]}
	}
	return out
}

// Count returns the count for one named region (0 if unknown).
func (p *PathLength) Count(name string) uint64 {
	for i, n := range p.names {
		if n == name {
			counts, _ := p.fold()
			return counts[i]
		}
	}
	return 0
}
