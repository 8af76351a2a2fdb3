package core

import (
	"sort"

	"isacmp/internal/isa"
)

// BlockProfile attributes dynamic instructions to basic blocks
// discovered at run time — the "broken down either by kernel or basic
// code block" alternative of the paper's Figure 1, for programs
// without helpful symbols. A block begins at the instruction after any
// control-flow instruction (taken or not) and at every branch target.
type BlockProfile struct {
	counts map[uint64]*blockInfo

	curStart   uint64
	curLen     uint64
	prevBranch bool
	started    bool
	total      uint64
}

type blockInfo struct {
	execs  uint64 // times entered
	insts  uint64 // dynamic instructions attributed
	maxLen uint64 // static length observed (instructions)
}

// Block is one row of the profile.
type Block struct {
	// Start is the block's entry PC.
	Start uint64
	// End is one past the last instruction observed in the block.
	End uint64
	// Execs counts how many times the block was entered.
	Execs uint64
	// Instructions is the dynamic instruction count attributed.
	Instructions uint64
	// Fraction is Instructions / total.
	Fraction float64
}

// NewBlockProfile returns an empty profile.
func NewBlockProfile() *BlockProfile {
	return &BlockProfile{counts: make(map[uint64]*blockInfo, 1<<10)}
}

// Events observes a whole batch, one event at a time.
func (b *BlockProfile) Events(evs []isa.Event) {
	for i := range evs {
		b.Event(&evs[i])
	}
}

// Event observes one retired instruction.
func (b *BlockProfile) Event(ev *isa.Event) {
	b.total++
	if !b.started || b.prevBranch {
		b.flush()
		b.curStart = ev.PC
		b.curLen = 0
		b.started = true
	}
	b.curLen++
	b.prevBranch = ev.Branch
}

func (b *BlockProfile) flush() {
	if !b.started || b.curLen == 0 {
		return
	}
	info := b.counts[b.curStart]
	if info == nil {
		info = &blockInfo{}
		b.counts[b.curStart] = info
	}
	info.execs++
	info.insts += b.curLen
	if b.curLen > info.maxLen {
		info.maxLen = b.curLen
	}
}

// Total returns the dynamic instruction count observed.
func (b *BlockProfile) Total() uint64 { return b.total }

// Hottest returns the top-n blocks by dynamic instruction count,
// flushing the in-progress block first.
func (b *BlockProfile) Hottest(n int) []Block {
	b.flush()
	b.started = false
	out := make([]Block, 0, len(b.counts))
	for start, info := range b.counts {
		out = append(out, Block{
			Start:        start,
			End:          start + info.maxLen*4,
			Execs:        info.execs,
			Instructions: info.insts,
			Fraction:     float64(info.insts) / float64(b.total),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instructions != out[j].Instructions {
			return out[i].Instructions > out[j].Instructions
		}
		return out[i].Start < out[j].Start
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
