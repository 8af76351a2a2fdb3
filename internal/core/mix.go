package core

import "isacmp/internal/isa"

// Mix histograms the dynamic instruction stream by latency group — the
// "instruction mix" view behind the paper's observations about
// computationally dense critical paths and the 15% branch fraction of
// STREAM on RISC-V (section 3.3's branch accounting).
type Mix struct {
	counts [isa.NumGroups]uint64
	total  uint64
}

// NewMix returns an empty histogram.
func NewMix() *Mix { return &Mix{} }

// Event counts one retired instruction.
func (m *Mix) Event(ev *isa.Event) { m.Events(isa.One(ev)) }

// Events counts a whole batch.
func (m *Mix) Events(evs []isa.Event) {
	for i := range evs {
		m.counts[evs[i].Group]++
	}
	m.total += uint64(len(evs))
}

// Total returns the number of observed instructions.
func (m *Mix) Total() uint64 { return m.total }

// Count returns the dynamic count of one group.
func (m *Mix) Count(g isa.Group) uint64 { return m.counts[g] }

// Fraction returns a group's share of the stream.
func (m *Mix) Fraction(g isa.Group) float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.counts[g]) / float64(m.total)
}

// GroupCount is one histogram row.
type GroupCount struct {
	Group    isa.Group
	Count    uint64
	Fraction float64
}

// Counts returns the full histogram in group order.
func (m *Mix) Counts() []GroupCount {
	out := make([]GroupCount, 0, isa.NumGroups)
	for g := isa.Group(0); g < isa.NumGroups; g++ {
		out = append(out, GroupCount{Group: g, Count: m.counts[g], Fraction: m.Fraction(g)})
	}
	return out
}

// BranchProfile measures control-flow behaviour over the whole
// program: branch density (the paper's "almost 15% of all
// instructions executed" for STREAM on RISC-V) and taken rate.
type BranchProfile struct {
	total    uint64
	branches uint64
	taken    uint64
}

// NewBranchProfile builds an empty profile.
func NewBranchProfile() *BranchProfile { return &BranchProfile{} }

// Events observes a whole batch, one event at a time.
func (b *BranchProfile) Events(evs []isa.Event) {
	for i := range evs {
		b.Event(&evs[i])
	}
}

// Event observes one retired instruction.
func (b *BranchProfile) Event(ev *isa.Event) {
	b.total++
	if !ev.Branch {
		return
	}
	b.branches++
	if ev.Taken {
		b.taken++
	}
}

// Total returns all retired instructions observed.
func (b *BranchProfile) Total() uint64 { return b.total }

// Branches returns the dynamic branch count.
func (b *BranchProfile) Branches() uint64 { return b.branches }

// Density returns branches / instructions.
func (b *BranchProfile) Density() float64 {
	if b.total == 0 {
		return 0
	}
	return float64(b.branches) / float64(b.total)
}

// TakenRate returns taken branches / all branches.
func (b *BranchProfile) TakenRate() float64 {
	if b.branches == 0 {
		return 0
	}
	return float64(b.taken) / float64(b.branches)
}
