package core

import "isacmp/internal/isa"

// Mix histograms the dynamic instruction stream by latency group — the
// "instruction mix" view behind the paper's observations about
// computationally dense critical paths — and profiles its control
// flow in the same walk: branch density (section 3.3's "almost 15% of
// all instructions executed" for STREAM on RISC-V) and taken rate.
type Mix struct {
	counts   [isa.NumGroups]uint64
	total    uint64
	branches uint64
	taken    uint64
}

// NewMix returns an empty histogram.
func NewMix() *Mix { return &Mix{} }

// Event counts one retired instruction.
func (m *Mix) Event(ev *isa.Event) { m.Events(isa.One(ev)) }

// Events counts a whole batch.
func (m *Mix) Events(evs []isa.Event) {
	for i := range evs {
		ev := &evs[i]
		m.counts[ev.Group]++
		if ev.Branch {
			m.branches++
			if ev.Taken {
				m.taken++
			}
		}
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

// Branches returns the dynamic branch count.
func (m *Mix) Branches() uint64 { return m.branches }

// Density returns branches / instructions.
func (m *Mix) Density() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.branches) / float64(m.total)
}

// TakenRate returns taken branches / all branches.
func (m *Mix) TakenRate() float64 {
	if m.branches == 0 {
		return 0
	}
	return float64(m.taken) / float64(m.branches)
}
