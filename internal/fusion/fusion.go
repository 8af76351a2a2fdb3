// Package fusion implements macro-op fusion as a stream-rewriting
// pass over the retired event stream: a configurable isa.Sink adapter
// that sits between a core's batched retirement delivery and the
// analysis sinks, recognizes adjacent fusible instruction pairs,
// and replaces each pair with a single fused event carrying the merged
// register and memory dependency sets. Path length, critical path,
// windowed CP and ILP computed downstream then describe the fused
// machine — the counter-argument Celio et al. ("The Renewed Case for
// the Reduced Instruction Set Computer") raise against static
// path-length comparisons like the paper's Table 1.
//
// The pass is purely a sink-side rewrite: simulated architectural
// state, memory contents and the machine's instruction count are
// untouched. Expanding every fused event back into its two
// constituent PCs reproduces the unfused retirement stream exactly
// (pinned by the differential fusion-equivalence tests).
//
// Fusion never crosses a dynamic basic-block boundary: a pair only
// fuses when the second event retired at PC+4 (fall-through) and the
// first is not a branch, so a taken branch or a branch target always
// starts a fresh pairing window. Batch seams are invisible — the pass
// carries at most one pending event across Events calls (the
// cross-batch lookahead), which makes the output independent of how
// the core chops the stream into StepN batches.
package fusion

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"isacmp/internal/isa"
)

// Rule identifies one fusion pattern.
type Rule uint8

// The fusion rules, in matching priority order (when a pair satisfies
// several rules the lowest-numbered one wins, deterministically).
const (
	// RuleLoadPair fuses two adjacent independent loads of the same
	// access size — the dual-ported-LSU model. Unlike an AArch64 LDP
	// the two addresses need not be contiguous; the second access is
	// carried in the event's Load2 slot so both memory RAW chains
	// survive.
	RuleLoadPair Rule = iota
	// RuleStorePair fuses two adjacent independent stores whose byte
	// spans are contiguous, merging them into one wider store.
	RuleStorePair
	// RuleAddLd fuses RV64 indexed-address loads: add rd,rs1,rs2
	// followed by a load with base rd and zero offset.
	RuleAddLd
	// RuleAddSt is the store form of RuleAddLd.
	RuleAddSt
	// RuleSlliAdd fuses RV64 address scaling: slli rd,rs1,{1,2,3}
	// followed by a destructive add of rd.
	RuleSlliAdd
	// RuleLuiAddi fuses RV64 constant formation: lui rd followed by a
	// destructive addi/addiw rd,rd,imm.
	RuleLuiAddi
	// RuleCmpBranch fuses an AArch64 flag-setting ALU instruction with
	// the conditional branch that consumes its NZCV result. RV64 is
	// excluded: its compare-and-branch instructions are already fused
	// architecturally.
	RuleCmpBranch

	// NumRules is the number of fusion rules.
	NumRules
)

var ruleNames = [NumRules]string{
	"loadpair", "storepair", "addld", "addst", "slliadd", "luiaddi", "cmpbranch",
}

// String returns the rule's short name (the -fusion spec vocabulary).
func (r Rule) String() string {
	if int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return fmt.Sprintf("rule(%d)", uint8(r))
}

// RuleSet is a bitmask of enabled rules.
type RuleSet uint16

// Has reports whether the rule is in the set.
func (s RuleSet) Has(r Rule) bool { return s&(1<<r) != 0 }

// AllRules enables every fusion rule.
const AllRules RuleSet = 1<<NumRules - 1

// Per-architecture applicability: the RV64 word-pattern rules decode
// RV64 encodings and must never inspect AArch64 words (bit patterns
// alias), and cmp+branch fusion only exists on AArch64.
const (
	archNeutralRules = RuleSet(1<<RuleLoadPair | 1<<RuleStorePair)
	rv64OnlyRules    = RuleSet(1<<RuleAddLd | 1<<RuleAddSt | 1<<RuleSlliAdd | 1<<RuleLuiAddi)
	a64OnlyRules     = RuleSet(1 << RuleCmpBranch)
)

// Config selects which architectures the pass rewrites and which
// rules it applies. The zero value is fusion off.
type Config struct {
	// RV64 and A64 scope the pass to targets of that architecture; a
	// machine outside the scope gets no pass at all (identity elided).
	RV64 bool
	A64  bool
	// Rules is the enabled rule set (AllRules via ParseSpec unless the
	// spec names specific rules).
	Rules RuleSet
}

// Enabled reports whether the config turns fusion on for any target.
func (c Config) Enabled() bool { return c.RV64 || c.A64 }

// RulesFor returns the subset of enabled rules that can fire on a
// machine of the given architecture (empty when out of scope).
func (c Config) RulesFor(arch isa.Arch) RuleSet {
	switch arch {
	case isa.RV64:
		if !c.RV64 {
			return 0
		}
		return c.Rules & (archNeutralRules | rv64OnlyRules)
	case isa.AArch64:
		if !c.A64 {
			return 0
		}
		return c.Rules & (archNeutralRules | a64OnlyRules)
	}
	return 0
}

// Active reports whether a pass should be interposed for the given
// architecture. When false the caller wires the sinks directly — the
// disabled pass costs nothing, which is the fusion-off byte-identity
// contract.
func (c Config) Active(arch isa.Arch) bool { return c.RulesFor(arch) != 0 }

// ParseSpec parses the -fusion flag: "off" (or ""), or a scope
// "rv64" | "a64" | "both", optionally followed by ":rule,rule,..."
// to enable a subset of rules (all rules without the suffix).
func ParseSpec(s string) (Config, error) {
	scope, rulesPart, hasRules := strings.Cut(s, ":")
	var c Config
	switch scope {
	case "", "off":
		if hasRules {
			return Config{}, fmt.Errorf("fusion: %q: \"off\" takes no rule list", s)
		}
		return Config{}, nil
	case "rv64":
		c.RV64 = true
	case "a64":
		c.A64 = true
	case "both":
		c.RV64, c.A64 = true, true
	default:
		return Config{}, fmt.Errorf("fusion: unknown scope %q (want off, rv64, a64 or both)", scope)
	}
	if !hasRules {
		c.Rules = AllRules
		return c, nil
	}
	for _, name := range strings.Split(rulesPart, ",") {
		found := false
		for r := Rule(0); r < NumRules; r++ {
			if name == ruleNames[r] {
				c.Rules |= 1 << r
				found = true
				break
			}
		}
		if !found {
			return Config{}, fmt.Errorf("fusion: unknown rule %q (want %s)",
				name, strings.Join(ruleNames[:], ", "))
		}
	}
	if c.Rules == 0 {
		return Config{}, fmt.Errorf("fusion: %q enables no rules", s)
	}
	return c, nil
}

// Spec renders the config back in -fusion flag syntax ("off",
// "rv64", "both:loadpair,slliadd", ...) — the canonical form recorded
// in the manifest fusion block.
func (c Config) Spec() string {
	if !c.Enabled() {
		return "off"
	}
	scope := "both"
	switch {
	case c.RV64 && !c.A64:
		scope = "rv64"
	case c.A64 && !c.RV64:
		scope = "a64"
	}
	if c.Rules == AllRules {
		return scope
	}
	var names []string
	for r := Rule(0); r < NumRules; r++ {
		if c.Rules.Has(r) {
			names = append(names, ruleNames[r])
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return scope + ":none"
	}
	return scope + ":" + strings.Join(names, ",")
}

// Stats counts what one pass did: raw events in, rewritten events out
// (the fused machine's effective path length) and per-rule hits.
type Stats struct {
	EventsIn  uint64
	EventsOut uint64
	Hits      [NumRules]uint64
}

// Pairs returns the total number of fused pairs across all rules.
func (s Stats) Pairs() uint64 {
	var n uint64
	for _, h := range s.Hits {
		n += h
	}
	return n
}

// Pass is the stream-rewriting adapter, an isa.Sink. Wire it between
// the core and the analysis sinks and call Flush once simulation has
// finished so the final carried event is delivered. A Pass is
// single-goroutine, like any sink.
type Pass struct {
	// byGroup[g] is the enabled rules whose first event must be in
	// group g (see firstGroup). It is indexed by a uint8 Group, so any
	// value is in range.
	byGroup [1 << 8]RuleSet
	down    isa.Sink

	pending    isa.Event
	hasPending bool
	// buf holds a batch's rewritten prefix; it always has room for the
	// carried event plus the whole batch.
	buf   []isa.Event
	stats Stats
}

// firstGroup is the group each rule requires of a pair's first event.
// Every rule names exactly one, so trying only the rules of the first
// event's group, in rule order, keeps the priority order.
var firstGroup = [NumRules]isa.Group{
	RuleLoadPair:  isa.GroupLoad,
	RuleStorePair: isa.GroupStore,
	RuleAddLd:     isa.GroupIntSimple,
	RuleAddSt:     isa.GroupIntSimple,
	RuleSlliAdd:   isa.GroupIntSimple,
	RuleLuiAddi:   isa.GroupIntSimple,
	RuleCmpBranch: isa.GroupIntSimple,
}

// NewPass builds a pass for one machine. Callers should interpose one
// only when cfg.Active(arch); rules outside the architecture's scope
// are masked off regardless.
func NewPass(cfg Config, arch isa.Arch, down isa.Sink) *Pass {
	p := &Pass{down: down}
	rules := cfg.RulesFor(arch)
	for r := Rule(0); r < NumRules; r++ {
		if rules.Has(r) {
			p.byGroup[firstGroup[r]] |= 1 << r
		}
	}
	return p
}

// Stats returns the pass counters accumulated so far.
func (p *Pass) Stats() Stats { return p.stats }

// Event observes one retired instruction.
func (p *Pass) Event(ev *isa.Event) { p.Events(isa.One(ev)) }

// Events observes a batch of retired instructions. It pairs greedily
// left to right in one pass and builds each fused event in the output
// slot it will occupy. At most one trailing event is carried to the
// next batch, so a fusible pair straddling a batch seam fuses exactly
// as it would within one batch.
func (p *Pass) Events(evs []isa.Event) {
	if len(evs) == 0 {
		return
	}
	p.stats.EventsIn += uint64(len(evs))
	if len(p.buf) < len(evs)+1 {
		p.buf = make([]isa.Event, len(evs)+1)
	}
	out, n, i := p.buf, 0, 0
	if p.hasPending {
		p.hasPending = false
		if p.fuse(&out[0], &p.pending, &evs[0]) {
			i = 1
		} else {
			out[0] = p.pending
		}
		n = 1
	}
	// evs[from:i] pass through unchanged. They are copied into out only
	// when a later pair fuses, so a batch in which nothing fuses is
	// delivered from the caller's own slice. The group test repeats
	// fuse's first check so that events no rule starts skip the call.
	from := i
	for i+1 < len(evs) {
		if p.byGroup[evs[i].Group] != 0 && p.fuse(&out[n+i-from], &evs[i], &evs[i+1]) {
			n += copy(out[n:], evs[from:i]) + 1
			i += 2
			from = i
		} else {
			i++
		}
	}
	end := len(evs)
	if i < end {
		end--
		p.pending = evs[end]
		p.hasPending = true
	}
	p.stats.EventsOut += uint64(n + end - from)
	if n > 0 {
		p.down.Events(out[:n])
	}
	if end > from {
		p.down.Events(evs[from:end])
	}
}

// Flush delivers the carried trailing event, if any. Call exactly once,
// after the core has finished and before reading analysis results.
func (p *Pass) Flush() {
	if !p.hasPending {
		return
	}
	p.hasPending = false
	p.stats.EventsOut++
	p.down.Events(isa.One(&p.pending))
}

// fuse reports whether the adjacent pair (a, b) fuses under the
// enabled rules and, if so, builds the fused event in *f, which must
// alias neither, and records the rule hit. Only the rules of a's group
// are tried.
func (p *Pass) fuse(f, a, b *isa.Event) bool {
	rules := p.byGroup[a.Group]
	// Dynamic basic-block constraint: b must have retired by falling
	// through from a. Already-fused events (possible in hand-built
	// streams) never re-fuse.
	if rules == 0 || b.PC != a.PC+4 || a.Branch || a.Fused != 0 || b.Fused != 0 {
		return false
	}
	for ; rules != 0; rules &= rules - 1 {
		r := Rule(bits.TrailingZeros16(uint16(rules)))
		if !match(r, a, b) {
			continue
		}
		// The merged register sets do not depend on the rule, so a pair
		// whose merge overflows fuses under no later rule either.
		if !merge(r, f, a, b) {
			return false
		}
		p.stats.Hits[r]++
		return true
	}
	return false
}

// match checks the rule-specific pattern (register-width merge
// feasibility is checked later, in merge). Architecture scoping is the
// rule mask's job (Config.RulesFor).
func match(r Rule, a, b *isa.Event) bool {
	switch r {
	case RuleLoadPair:
		// Two independent loads of the same width; a dual-ported LSU
		// issues them together. Independence (b reads nothing a writes)
		// is required — a dependent second load cannot issue in the
		// same macro-op.
		return a.Group == isa.GroupLoad && b.Group == isa.GroupLoad &&
			a.LoadSize != 0 && a.LoadSize == b.LoadSize &&
			a.StoreSize == 0 && b.StoreSize == 0 &&
			a.Load2Size == 0 && b.Load2Size == 0 &&
			!b.Branch && !readsAny(b, a)
	case RuleStorePair:
		// Two adjacent stores forming one contiguous byte span (either
		// order) merge into a single wider store.
		if a.Group != isa.GroupStore || b.Group != isa.GroupStore ||
			a.StoreSize == 0 || b.StoreSize == 0 ||
			a.LoadSize != 0 || b.LoadSize != 0 || b.Branch {
			return false
		}
		if int(a.StoreSize)+int(b.StoreSize) > 255 {
			return false
		}
		return a.StoreAddr+uint64(a.StoreSize) == b.StoreAddr ||
			b.StoreAddr+uint64(b.StoreSize) == a.StoreAddr
	case RuleAddLd:
		if b.Group != isa.GroupLoad || b.Branch || b.Load2Size != 0 {
			return false
		}
		rd, ok := rvAdd(a)
		return ok && rvLoadZeroOff(b) == rd
	case RuleAddSt:
		if b.Group != isa.GroupStore || b.Branch {
			return false
		}
		rd, ok := rvAdd(a)
		return ok && rvStoreZeroOff(b) == rd
	case RuleSlliAdd:
		rd, ok := rvShiftSLLI(a)
		if !ok {
			return false
		}
		// Destructive add consuming the shifted temporary: the slli
		// result is dead after the pair, matching the Celio pattern.
		rd2, rs1, rs2, ok := rvAddFields(b)
		return ok && rd2 == rd && (rs1 == rd || rs2 == rd)
	case RuleLuiAddi:
		rd, ok := rvLUI(a)
		if !ok {
			return false
		}
		rd2, rs1, ok := rvAddImm(b)
		return ok && rd2 == rd && rs1 == rd
	case RuleCmpBranch:
		// AArch64 only: a sets NZCV, b is the conditional branch that
		// reads it.
		return b.Branch && a.Group == isa.GroupIntSimple &&
			a.LoadSize == 0 && a.StoreSize == 0 &&
			writesReg(a, isa.RegNZCV) && readsReg(b, isa.RegNZCV)
	}
	return false
}

// merge builds the fused event for a matched pair. The merged source
// set is a.Srcs ∪ (b.Srcs − a.Dsts) — values a produces for b are
// internal to the macro-op — and the merged destination set is
// a.Dsts ∪ b.Dsts. A pair whose merged sets exceed the event's
// capacity does not fuse. The event is built in *f, which must alias
// neither a nor b; on failure *f holds a partial merge.
func merge(r Rule, f, a, b *isa.Event) bool {
	*f = isa.Event{PC: a.PC, Word: a.Word, Fused: 2}

	for k := uint8(0); k < a.NDsts; k++ {
		if !addDst(f, a.Dsts[k]) {
			return false
		}
	}
	for k := uint8(0); k < b.NDsts; k++ {
		if !addDst(f, b.Dsts[k]) {
			return false
		}
	}
	for k := uint8(0); k < a.NSrcs; k++ {
		if !addSrc(f, a.Srcs[k]) {
			return false
		}
	}
	for k := uint8(0); k < b.NSrcs; k++ {
		if writesReg(a, b.Srcs[k]) {
			continue // internal edge
		}
		if !addSrc(f, b.Srcs[k]) {
			return false
		}
	}

	switch r {
	case RuleLoadPair:
		f.Group = isa.GroupLoad
		f.LoadAddr, f.LoadSize = a.LoadAddr, a.LoadSize
		f.Load2Addr, f.Load2Size = b.LoadAddr, b.LoadSize
	case RuleStorePair:
		f.Group = isa.GroupStore
		f.StoreAddr = a.StoreAddr
		if b.StoreAddr < a.StoreAddr {
			f.StoreAddr = b.StoreAddr
		}
		f.StoreSize = a.StoreSize + b.StoreSize
	case RuleAddLd:
		f.Group = isa.GroupLoad
		f.LoadAddr, f.LoadSize = b.LoadAddr, b.LoadSize
	case RuleAddSt:
		f.Group = isa.GroupStore
		f.StoreAddr, f.StoreSize = b.StoreAddr, b.StoreSize
	case RuleSlliAdd, RuleLuiAddi:
		f.Group = isa.GroupIntSimple
	case RuleCmpBranch:
		f.Group = isa.GroupBranch
		f.Branch, f.Taken = true, b.Taken
	}
	return true
}

// addSrc appends a deduplicated source, reporting overflow.
func addSrc(f *isa.Event, r isa.Reg) bool {
	for k := uint8(0); k < f.NSrcs; k++ {
		if f.Srcs[k] == r {
			return true
		}
	}
	if f.NSrcs == uint8(len(f.Srcs)) {
		return false
	}
	f.Srcs[f.NSrcs] = r
	f.NSrcs++
	return true
}

// addDst appends a deduplicated destination, reporting overflow.
func addDst(f *isa.Event, r isa.Reg) bool {
	for k := uint8(0); k < f.NDsts; k++ {
		if f.Dsts[k] == r {
			return true
		}
	}
	if f.NDsts == uint8(len(f.Dsts)) {
		return false
	}
	f.Dsts[f.NDsts] = r
	f.NDsts++
	return true
}

// readsReg reports whether e lists r as a source.
func readsReg(e *isa.Event, r isa.Reg) bool {
	for k := uint8(0); k < e.NSrcs; k++ {
		if e.Srcs[k] == r {
			return true
		}
	}
	return false
}

// writesReg reports whether e lists r as a destination.
func writesReg(e *isa.Event, r isa.Reg) bool {
	for k := uint8(0); k < e.NDsts; k++ {
		if e.Dsts[k] == r {
			return true
		}
	}
	return false
}

// readsAny reports whether b reads any register a writes.
func readsAny(b, a *isa.Event) bool {
	for k := uint8(0); k < a.NDsts; k++ {
		if readsReg(b, a.Dsts[k]) {
			return true
		}
	}
	return false
}

// RV64 word-pattern helpers. They inspect the raw 32-bit encoding, so
// the rules using them are gated to RV64 machines by RulesFor.

// rvAdd matches ADD rd,rs1,rs2 (opcode 0110011, funct3 0, funct7 0)
// and returns rd.
func rvAdd(e *isa.Event) (isa.Reg, bool) {
	w := e.Word
	if w&0x7f != 0x33 || (w>>12)&7 != 0 || w>>25 != 0 {
		return 0, false
	}
	rd := isa.Reg((w >> 7) & 0x1f)
	return rd, rd != 0 && e.Group == isa.GroupIntSimple
}

// rvAddFields matches ADD and returns (rd, rs1, rs2).
func rvAddFields(e *isa.Event) (rd, rs1, rs2 isa.Reg, ok bool) {
	if _, addOK := rvAdd(e); !addOK {
		return 0, 0, 0, false
	}
	w := e.Word
	return isa.Reg((w >> 7) & 0x1f), isa.Reg((w >> 15) & 0x1f), isa.Reg((w >> 20) & 0x1f), true
}

// rvShiftSLLI matches SLLI rd,rs1,shamt with the address-scaling
// shifts 1..3 (opcode 0010011, funct3 001) and returns rd.
func rvShiftSLLI(e *isa.Event) (isa.Reg, bool) {
	w := e.Word
	if w&0x7f != 0x13 || (w>>12)&7 != 1 {
		return 0, false
	}
	if sh := (w >> 20) & 0x3f; sh < 1 || sh > 3 {
		return 0, false
	}
	rd := isa.Reg((w >> 7) & 0x1f)
	return rd, rd != 0 && e.Group == isa.GroupIntSimple
}

// rvLUI matches LUI rd (opcode 0110111) and returns rd.
func rvLUI(e *isa.Event) (isa.Reg, bool) {
	w := e.Word
	if w&0x7f != 0x37 {
		return 0, false
	}
	rd := isa.Reg((w >> 7) & 0x1f)
	return rd, rd != 0 && e.Group == isa.GroupIntSimple
}

// rvAddImm matches ADDI/ADDIW rd,rs1,imm (opcodes 0010011/0011011,
// funct3 0) and returns (rd, rs1).
func rvAddImm(e *isa.Event) (rd, rs1 isa.Reg, ok bool) {
	w := e.Word
	op := w & 0x7f
	if (op != 0x13 && op != 0x1b) || (w>>12)&7 != 0 {
		return 0, 0, false
	}
	rd = isa.Reg((w >> 7) & 0x1f)
	return rd, isa.Reg((w >> 15) & 0x1f), rd != 0 && e.Group == isa.GroupIntSimple
}

// rvLoadZeroOff matches an integer or FP load (opcodes 0000011 /
// 0000111) with a zero immediate and returns its base register, or 0.
func rvLoadZeroOff(e *isa.Event) isa.Reg {
	w := e.Word
	op := w & 0x7f
	if (op != 0x03 && op != 0x07) || w>>20 != 0 {
		return 0
	}
	return isa.Reg((w >> 15) & 0x1f)
}

// rvStoreZeroOff matches an integer or FP store (opcodes 0100011 /
// 0100111) with a zero immediate and returns its base register, or 0.
func rvStoreZeroOff(e *isa.Event) isa.Reg {
	w := e.Word
	op := w & 0x7f
	if (op != 0x23 && op != 0x27) || (w>>25) != 0 || (w>>7)&0x1f != 0 {
		return 0
	}
	return isa.Reg((w >> 15) & 0x1f)
}
