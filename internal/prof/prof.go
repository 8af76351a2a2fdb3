// Package prof is the performance-attribution span profiler of the
// execution engine: per-worker timelines of coarse stage spans (setup,
// simulate, fan-out delivery, per-analysis sink, retry backoff,
// manifest write) recorded for every matrix cell.
//
// Design constraints mirror internal/telemetry: the profiler is a pure
// observer (it can never change a result byte), every method is safe
// on a nil receiver so disabled profiling costs one predictable nil
// check per hook, and the record path performs no allocation — spans
// land in fixed-capacity per-lane rings guarded by one mutex per lane.
// Spans are coarse (a handful per matrix cell, not per instruction),
// so the lane mutex is uncontended in practice; the per-instruction
// hot path is never touched. Stage *totals* are accumulated separately
// from the rings, so they stay exact even after a ring wraps.
package prof

import (
	"sort"
	"sync"
	"time"
)

// Stage identifies what a span's time was spent on.
type Stage uint8

const (
	// StageSetup covers compiling the workload and building the
	// machine, memory image and analysis sinks for one cell attempt.
	StageSetup Stage = iota
	// StageSimulate is the architectural simulation itself (StepN).
	StageSimulate
	// StageDeliver is event delivery: tee/fan-out hand-off from the
	// generator to the analysis sinks.
	StageDeliver
	// StageSink is one analysis consumer's own processing time; the
	// span label names the sink ("windowcp", "critpath", ...).
	StageSink
	// StageRetryBackoff is the sleep between failed cell attempts.
	StageRetryBackoff
	// StageManifestWrite is the run-manifest serialization at the end
	// of an invocation.
	StageManifestWrite

	numStages
)

var stageNames = [numStages]string{
	"setup", "simulate", "deliver", "sink", "retry-backoff", "manifest-write",
}

// String returns the stage's schema name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageKey returns the stage-totals key for a (stage, label) pair:
// the stage name, with sink spans qualified as "sink:<label>".
func StageKey(stage Stage, label string) string {
	if stage == StageSink && label != "" {
		return "sink:" + label
	}
	return stage.String()
}

// Span is one recorded stage interval on a lane's timeline.
type Span struct {
	// Stage and Label classify the work; Cell is "workload/target".
	Stage Stage  `json:"-"`
	Name  string `json:"stage"` // StageKey form, filled on read-out
	Label string `json:"label,omitempty"`
	Cell  string `json:"cell,omitempty"`
	// Lane is the worker the span ran on (the last lane is the
	// coordinator).
	Lane int `json:"lane"`
	// Start is epoch-relative monotonic nanoseconds; Dur the span
	// length in nanoseconds.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
}

// DefaultLaneSpans is the per-lane ring capacity when New is given 0.
const DefaultLaneSpans = 4096

// laneStat accumulates exact totals for one (stage, label) key.
type laneStat struct {
	ns    int64
	spans int64
}

// lane is one worker's span timeline: a fixed-capacity ring plus
// exact stage totals. Each lane has its own mutex so workers never
// contend with each other.
type lane struct {
	mu      sync.Mutex
	ring    []Span
	next    int
	total   int64
	stage   [numStages]laneStat
	byLabel map[string]*laneStat // sink totals keyed by label
}

// Profiler records stage spans on per-worker lanes. The zero of the
// type is not useful — build one with New. A nil *Profiler is the
// disabled profiler: every method no-ops.
type Profiler struct {
	epoch time.Time
	lanes []lane
}

// New returns a profiler with one lane per worker plus a coordinator
// lane, each holding up to spansPerLane spans (0 selects
// DefaultLaneSpans). workers < 1 is treated as 1.
func New(workers, spansPerLane int) *Profiler {
	if workers < 1 {
		workers = 1
	}
	if spansPerLane <= 0 {
		spansPerLane = DefaultLaneSpans
	}
	p := &Profiler{epoch: time.Now(), lanes: make([]lane, workers+1)}
	for i := range p.lanes {
		p.lanes[i].ring = make([]Span, 0, spansPerLane)
		p.lanes[i].byLabel = map[string]*laneStat{}
	}
	return p
}

// Enabled reports whether the profiler records anything (false on
// nil — the -profile-off configuration).
func (p *Profiler) Enabled() bool { return p != nil }

// Lanes returns the lane count (workers + 1 coordinator); 0 on nil.
func (p *Profiler) Lanes() int {
	if p == nil {
		return 0
	}
	return len(p.lanes)
}

// CoordinatorLane returns the lane index reserved for work outside
// the worker pool (suite setup, manifest writes); 0 on nil.
func (p *Profiler) CoordinatorLane() int {
	if p == nil {
		return 0
	}
	return len(p.lanes) - 1
}

// Now returns the profiler's epoch-relative monotonic clock in
// nanoseconds (0 on nil).
func (p *Profiler) Now() int64 {
	if p == nil {
		return 0
	}
	return int64(time.Since(p.epoch))
}

// clampLane folds out-of-range lane ids onto the coordinator lane, so
// a caller wired with a stale worker count cannot panic the observer.
func (p *Profiler) clampLane(id int) *lane {
	if id < 0 || id >= len(p.lanes) {
		id = len(p.lanes) - 1
	}
	return &p.lanes[id]
}

// Record stores one completed span on a lane: [start, end) in
// epoch-relative nanoseconds (see Now). No-op on nil.
func (p *Profiler) Record(laneID int, stage Stage, label, cell string, start, end int64) {
	if p == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	ln := p.clampLane(laneID)
	span := Span{Stage: stage, Label: label, Cell: cell, Start: start, Dur: dur}
	ln.mu.Lock()
	if len(ln.ring) < cap(ln.ring) {
		ln.ring = append(ln.ring, span)
	} else {
		ln.ring[ln.next] = span
		ln.next = (ln.next + 1) % cap(ln.ring)
	}
	ln.total++
	if stage == StageSink && label != "" {
		st := ln.byLabel[label]
		if st == nil {
			st = &laneStat{}
			ln.byLabel[label] = st
		}
		st.ns += dur
		st.spans++
	} else {
		ln.stage[stage].ns += dur
		ln.stage[stage].spans++
	}
	ln.mu.Unlock()
}

// SpanHandle is an open span returned by Start; call End to record it.
// Passed by value so starting and ending a span allocates nothing.
type SpanHandle struct {
	p     *Profiler
	lane  int
	stage Stage
	label string
	cell  string
	start int64
}

// Start opens a span on the lane at the current clock. On a nil
// profiler the returned handle's End is a no-op.
func (p *Profiler) Start(lane int, stage Stage, label, cell string) SpanHandle {
	if p == nil {
		return SpanHandle{}
	}
	return SpanHandle{p: p, lane: lane, stage: stage, label: label, cell: cell, start: p.Now()}
}

// End records the span opened by Start.
func (h SpanHandle) End() {
	if h.p == nil {
		return
	}
	h.p.Record(h.lane, h.stage, h.label, h.cell, h.start, h.p.Now())
}

// Spans returns every retained span across all lanes, sorted by start
// time (nil profiler returns nil). Each span carries its lane and its
// StageKey name, ready for export.
func (p *Profiler) Spans() []Span {
	if p == nil {
		return nil
	}
	var out []Span
	for li := range p.lanes {
		ln := &p.lanes[li]
		ln.mu.Lock()
		n := len(ln.ring)
		start := 0
		if ln.total > int64(n) {
			start = ln.next
		}
		for i := 0; i < n; i++ {
			s := ln.ring[(start+i)%n]
			s.Lane = li
			s.Name = StageKey(s.Stage, s.Label)
			out = append(out, s)
		}
		ln.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped returns how many spans were overwritten after lane rings
// filled (0 on nil). Totals remain exact regardless.
func (p *Profiler) Dropped() int64 {
	if p == nil {
		return 0
	}
	var d int64
	for li := range p.lanes {
		ln := &p.lanes[li]
		ln.mu.Lock()
		if over := ln.total - int64(cap(ln.ring)); over > 0 {
			d += over
		}
		ln.mu.Unlock()
	}
	return d
}

// StageTotal is one row of the per-stage time breakdown.
type StageTotal struct {
	// Stage is the StageKey ("simulate", "sink:windowcp", ...).
	Stage string `json:"stage"`
	// Seconds is the exact summed span time across all lanes; Spans
	// the number of spans recorded.
	Seconds float64 `json:"seconds"`
	Spans   int64   `json:"spans"`
}

// StageTotals returns the exact per-stage breakdown across all lanes,
// largest first (nil profiler returns nil).
func (p *Profiler) StageTotals() []StageTotal {
	if p == nil {
		return nil
	}
	acc := map[string]*laneStat{}
	for li := range p.lanes {
		ln := &p.lanes[li]
		ln.mu.Lock()
		for s := Stage(0); s < numStages; s++ {
			if ln.stage[s].spans == 0 {
				continue
			}
			key := s.String()
			st := acc[key]
			if st == nil {
				st = &laneStat{}
				acc[key] = st
			}
			st.ns += ln.stage[s].ns
			st.spans += ln.stage[s].spans
		}
		for label, lst := range ln.byLabel {
			key := "sink:" + label
			st := acc[key]
			if st == nil {
				st = &laneStat{}
				acc[key] = st
			}
			st.ns += lst.ns
			st.spans += lst.spans
		}
		ln.mu.Unlock()
	}
	out := make([]StageTotal, 0, len(acc))
	for key, st := range acc {
		out = append(out, StageTotal{Stage: key, Seconds: float64(st.ns) / 1e9, Spans: st.spans})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// StageSeconds returns the breakdown as a map (nil profiler returns
// an empty map) — the /statusz and scaling-report form.
func (p *Profiler) StageSeconds() map[string]float64 {
	out := map[string]float64{}
	for _, t := range p.StageTotals() {
		out[t.Stage] = t.Seconds
	}
	return out
}
