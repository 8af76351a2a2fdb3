package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/durable"
	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/report"
	"isacmp/internal/sched"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
)

// The traced run rebuilds every cell from the layers' public
// constructors and reads the clock around each call it makes into a
// layer, never inside one. The end-to-end run reads no clock inside a
// layer at all; per-layer numbers come only from here.
//
// Each cell is traced in four steps: compile and load; a run with a nil
// sink on a fresh machine (the step cost); a replay run through a
// bench-owned batch sink that calls the fusion pass, each analysis sink
// and a tee in turn, reading the clock once per 4096-event batch; and a
// sched.FanoutTimed run, with the workload's consumers on a fan-out
// workload.
//
// A traced result line must carry every per-layer metric BENCHMARK.json
// lists, on every workload, and a time must be measured rather than a
// constant. So a layer the workload's config bypasses is still measured
// on the side: the replay sink also feeds the bypassed analyses and
// fusion pass the first offPathCap events of the raw stream, the
// fan-out runs with no-op consumers, and the durable layer is timed by
// direct calls on every workload. Those values are flagged off_path in
// the result document and count nowhere in report.unattributed_frac.

const (
	// offPathCap bounds the events each bypassed stream layer sees per
	// cell, which keeps a traced stream-long run (121 M events) short.
	offPathCap = 1 << 18
	// durablePasses and manifestPasses repeat the short, fsync- and
	// allocation-bound measurements so one slow call does not decide them.
	durablePasses  = 3
	manifestPasses = 5
	// fanoutNops is the consumer count of an off-path fan-out:
	// armed-fanout's four analyses plus its metrics sink.
	fanoutNops = 5
)

// span is one interval of the trace. Spans whose time was accumulated
// over many short calls (one per event batch) are laid out back to
// back from the start of their parent: their durations are exact, their
// positions inside the parent are not.
type span struct {
	Name   string
	Cat    string // the module whose call the span times
	ID     string // the cell id on cell spans
	Start  int64  // ns since the trace origin
	Dur    int64
	Parent int    // index into the span list; -1 for the root
	Events uint64 // work the span covered: events, cells or calls
	// InPath marks time the untraced run also spends: the denominator
	// of report.unattributed_frac.
	InPath bool
}

type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) begin(parent int, cat, name string, inPath bool) int {
	t.spans = append(t.spans, span{Name: name, Cat: cat, Start: t.now(), Parent: parent, InPath: inPath})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, events uint64) {
	t.spans[i].Dur = t.now() - t.spans[i].Start
	t.spans[i].Events = events
}

// aggregate records accumulated time as a child of parent at *cursor
// and advances the cursor.
func (t *tracer) aggregate(parent int, cursor *int64, cat, name string, dur int64, events uint64, inPath bool) int {
	t.spans = append(t.spans, span{Name: name, Cat: cat, Start: *cursor, Dur: dur, Parent: parent, Events: events, InPath: inPath})
	*cursor += dur
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo := max(spans[c].Start, s.Start)
			hi := min(spans[c].Start+spans[c].Dur, s.Start+s.Dur)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
			}
			reach = max(reach, v.hi)
		}
		self[i] = s.Dur - covered
	}
	return self
}

// selfTime is one row of the printed self-time table.
type selfTime struct {
	Layer  string  `json:"layer"` // cat/name
	SelfMs float64 `json:"self_ms"`
	Spans  int     `json:"spans"`
}

// traceResult is what a traced child reports to the parent.
type traceResult struct {
	Programs  []string           `json:"programs"`
	Metrics   map[string]float64 `json:"metrics"`
	SelfTimes []selfTime         `json:"self_times"`
	Trace     string             `json:"trace"`
	Cells     int                `json:"cells"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

// nopSink stands in for consumers when a layer's own cost is wanted.
type nopSink struct{}

func (nopSink) Event(*isa.Event)   {}
func (nopSink) Events([]isa.Event) {}

// timedFan delivers to its sinks one after the other, reading the clock
// around each call. cats and names label each sink's span.
type timedFan struct {
	cats, names []string
	sinks       []isa.Sink
	ns          []int64
	events      []uint64
}

func (f *timedFan) add(cat, name string, s isa.Sink) {
	f.cats, f.names, f.sinks = append(f.cats, cat), append(f.names, name), append(f.sinks, s)
	f.ns, f.events = append(f.ns, 0), append(f.events, 0)
}

// addAnalyses adds analysis sinks built the way report.RunSuite builds
// them.
func (f *timedFan) addAnalyses(names []string, c *cc.Compiled, parallel int) {
	for _, n := range names {
		f.add("core", "sink:"+n, newAnalysis(n, c, parallel))
	}
}

func (f *timedFan) Event(ev *isa.Event) {
	for i, s := range f.sinks {
		start := time.Now()
		s.Event(ev)
		f.ns[i] += int64(time.Since(start))
		f.events[i]++
	}
}

func (f *timedFan) Events(evs []isa.Event) {
	for i, s := range f.sinks {
		start := time.Now()
		isa.DeliverBatch(s, evs)
		f.ns[i] += int64(time.Since(start))
		f.events[i] += uint64(len(evs))
	}
}

// finish flushes the sinks and collects windowed-CP results, which for
// the sharded analysis waits for its shard goroutines; the wait is the
// sink's time too.
func (f *timedFan) finish() {
	for i, s := range f.sinks {
		start := time.Now()
		finishSink(s)
		f.ns[i] += int64(time.Since(start))
	}
}

// finishSink flushes a fusion pass's carry, or collects a windowed-CP
// sink's results; for the sharded analysis this also stops its shard
// goroutines.
func finishSink(s isa.Sink) {
	switch s := s.(type) {
	case *fusion.Pass:
		s.Flush()
	case core.WindowAnalyzer:
		s.Results()
	}
}

// newAnalysis builds one analysis sink the way report.RunSuite does.
// parallel is the shard count of the sharded windowed CP; 0 picks
// GOMAXPROCS, as a default-parallelism run does.
func newAnalysis(name string, c *cc.Compiled, parallel int) isa.Sink {
	switch name {
	case "pathlen":
		return core.NewPathLength(c.File.Symbols)
	case "critpath":
		cp := core.NewCritPath()
		cp.SetDenseRange(cc.TextBase, c.MemSize)
		return cp
	case "scaledcp":
		cp := core.NewScaledCritPath(simeng.TX2Latencies())
		cp.SetDenseRange(cc.TextBase, c.MemSize)
		return cp
	case "windowcp":
		return core.NewWindowedCritPathStride(core.PaperWindowSizes(), 0)
	case "windowcp_sharded":
		return core.NewShardedWindowedCP(core.PaperWindowSizes(), 0, parallel)
	case "depdist":
		return core.NewDepDistance()
	}
	panic("bench: unknown analysis " + name)
}

var analysisNames = []string{"pathlen", "critpath", "scaledcp", "windowcp", "windowcp_sharded", "depdist"}

// tracedSink is the bench-owned sink of the replay run.
type tracedSink struct {
	fus *fusion.Pass // nil when the workload runs without fusion
	fan *timedFan    // the workload's analyses, downstream of fus
	tee *telemetry.Tee
	off *timedFan // the layers the workload bypasses, fed the raw stream
	// offN counts the events off has seen, up to offPathCap.
	offN int

	fusNs, teeNs int64
}

func (t *tracedSink) Event(ev *isa.Event) { t.Events([]isa.Event{*ev}) }

func (t *tracedSink) Events(evs []isa.Event) {
	t0 := time.Now()
	if t.fus != nil {
		t.fus.Events(evs)
	} else {
		t.fan.Events(evs)
	}
	t1 := time.Now()
	t.tee.Events(evs)
	if t.fus != nil {
		t.fusNs += int64(t1.Sub(t0))
	}
	t.teeNs += int64(time.Since(t1))
	if n := min(len(evs), offPathCap-t.offN); n > 0 {
		t.off.Events(evs[:n])
		t.offN += n
	}
}

// finish flushes the fusion carry and collects the analyses' results.
// With fusion in the path both are downstream of the pass, so they are
// timed into it as well as into the sinks, keeping the sink spans
// nested inside the fusion span.
func (t *tracedSink) finish() {
	t0 := time.Now()
	if t.fus != nil {
		t.fus.Flush()
	}
	t.fan.finish()
	if t.fus != nil {
		t.fusNs += int64(time.Since(t0))
	}
	t.off.finish()
}

// nopTee is a tee over n no-op sinks: the tee's own cost, without its
// consumers'.
func nopTee(n int) *telemetry.Tee {
	tee := telemetry.NewTee()
	for i := 0; i < n; i++ {
		tee.Add(fmt.Sprintf("nop%d", i), nopSink{})
	}
	return tee
}

// cellTrace holds what the durable step needs from a traced cell.
type cellTrace struct {
	workload, target, hash string
	payload                []byte
}

// traceRun accumulates the counters that are not times.
type traceRun struct {
	t          *tracer
	w          workload
	on         map[string]bool
	analyses   []string // in-config analysis sinks, in report order
	bypassed   []string // the other analyses, measured off path
	parallel   int
	textWords  map[string]uint64
	badWords   map[string]uint64
	fallbacks  map[string]uint64
	fusIn      uint64
	fusOut     uint64
	denseWords int
	mapEntries int
}

func archCat(a isa.Arch) string {
	if a == isa.AArch64 {
		return "a64"
	}
	return "rv64"
}

// traceCell traces one (program, target) cell and returns the row its
// in-config analyses computed, for the digest check.
func (tr *traceRun) traceCell(root int, prog *ir.Program, tgt cc.Target) (report.Row, *cc.Compiled, error) {
	t := tr.t
	row := report.Row{Target: tgt}
	arch := archCat(tgt.Arch)
	cell := t.begin(root, "report", "cell", false)
	t.spans[cell].ID = prog.Name + "/" + tgt.String()
	defer t.end(cell, 0)

	sp := t.begin(cell, "cc", "compile", true)
	compiled, err := cc.Compile(prog, tgt)
	t.end(sp, 1)
	if err != nil {
		return row, nil, err
	}
	sp = t.begin(cell, arch, "load", true)
	mach, err := load(compiled)
	t.end(sp, 1)
	if err != nil {
		return row, nil, err
	}
	pd := mach.(isa.PredecodeStatsSource)
	tr.textWords[arch] += pd.PredecodeStats().TextWords
	tr.badWords[arch] += pd.PredecodeStats().BadWords

	sp = t.begin(cell, arch, "simulate", true)
	st, err := (&simeng.EmulationCore{}).Run(mach, nil)
	t.end(sp, st.Instructions)
	if err != nil {
		return row, nil, err
	}
	tr.fallbacks[arch] += pd.PredecodeStats().Fallbacks
	row.PathLen = st.Instructions

	// Replay run: a second machine through the bench-owned sink.
	replayMach, err := load(compiled)
	if err != nil {
		return row, nil, err
	}
	ts := &tracedSink{fan: &timedFan{}, tee: nopTee(len(tr.analyses)), off: &timedFan{}}
	ts.fan.addAnalyses(tr.analyses, compiled, tr.parallel)
	ts.off.addAnalyses(tr.bypassed, compiled, 0)
	if tr.w.ex.Fusion.Active(tgt.Arch) {
		ts.fus = fusion.NewPass(tr.w.ex.Fusion, tgt.Arch, ts.fan)
	} else if !tr.on["fusion"] {
		ts.off.add("fusion", "fusion", fusion.NewPass(armedFusion, tgt.Arch, nopSink{}))
	}
	replay := t.begin(cell, "simeng", "replay", false)
	rst, err := (&simeng.EmulationCore{}).Run(replayMach, ts)
	ts.finish()
	t.end(replay, rst.Instructions)
	if err != nil {
		return row, nil, err
	}
	cursor := t.spans[replay].Start
	sinkParent, sinkCursor := replay, &cursor
	if ts.fus != nil {
		fst := ts.fus.Stats()
		tr.fusIn += fst.EventsIn
		tr.fusOut += fst.EventsOut
		row.Fusion = &telemetry.FusionStats{EventsIn: fst.EventsIn, EventsOut: fst.EventsOut}
		sinkParent = t.aggregate(replay, &cursor, "fusion", "fusion", ts.fusNs, fst.EventsIn, true)
		inner := t.spans[sinkParent].Start
		sinkCursor = &inner
	}
	for i := range ts.fan.sinks {
		t.aggregate(sinkParent, sinkCursor, ts.fan.cats[i], ts.fan.names[i], ts.fan.ns[i], ts.fan.events[i], true)
		tr.rowFrom(&row, ts.fan.sinks[i])
	}
	t.aggregate(replay, &cursor, "telemetry", "tee", ts.teeNs, rst.Instructions, tr.on["telemetry.tee"])
	for i, s := range ts.off.sinks {
		t.aggregate(replay, &cursor, ts.off.cats[i], ts.off.names[i], ts.off.ns[i], ts.off.events[i], false)
		tr.trackerStats(s)
		if p, ok := s.(*fusion.Pass); ok {
			tr.fusIn += p.Stats().EventsIn
			tr.fusOut += p.Stats().EventsOut
		}
	}
	return row, compiled, tr.fanoutRun(cell, compiled, tgt.Arch)
}

// rowFrom copies an analysis sink's paper numbers into row and keeps
// the critical-path tracker footprint.
func (tr *traceRun) rowFrom(row *report.Row, s isa.Sink) {
	switch a := s.(type) {
	case *core.PathLength:
		row.Regions, row.Other = a.Counts(), a.Other()
	case *core.CritPath:
		if a.Latencies != nil {
			row.ScaledCP = a.CP()
			return
		}
		row.CP = a.CP()
		tr.trackerStats(a)
	case core.WindowAnalyzer:
		row.Windows = a.Results()
	}
}

// trackerStats keeps the largest footprint of the unscaled
// critical-path tracker.
func (tr *traceRun) trackerStats(s isa.Sink) {
	if cp, ok := s.(*core.CritPath); ok && cp.Latencies == nil {
		ts := cp.TrackerStats()
		tr.denseWords = max(tr.denseWords, ts.DenseWords)
		tr.mapEntries = max(tr.mapEntries, ts.MapEntries)
	}
}

// fanoutRun times sched.FanoutTimed over the cell's full stream: with
// the consumers report.RunSuite gives it on a fan-out workload, with
// no-op consumers elsewhere.
func (tr *traceRun) fanoutRun(cell int, compiled *cc.Compiled, arch isa.Arch) error {
	t := tr.t
	mach, err := load(compiled)
	if err != nil {
		return err
	}
	inPath := tr.on["sched.fanout"]
	var consumers []isa.Sink
	if inPath {
		for _, name := range tr.analyses {
			consumers = append(consumers, newAnalysis(name, compiled, tr.parallel))
		}
		consumers = append(consumers, telemetry.NewCellMetrics())
	} else {
		for i := 0; i < fanoutNops; i++ {
			consumers = append(consumers, nopSink{})
		}
	}
	var fs sched.FanoutStats
	sp := t.begin(cell, "sched", "fanout", false)
	n, err := sched.FanoutTimed(func(s isa.Sink) error {
		var p *fusion.Pass
		if tr.w.ex.Fusion.Active(arch) {
			p = fusion.NewPass(tr.w.ex.Fusion, arch, s)
			s = p
		}
		_, err := (&simeng.EmulationCore{}).Run(mach, s)
		if err == nil && p != nil {
			p.Flush()
		}
		return err
	}, &fs, consumers...)
	for _, s := range consumers {
		finishSink(s)
	}
	t.end(sp, n)
	if err != nil {
		return err
	}
	cursor := t.spans[sp].Start
	t.aggregate(sp, &cursor, "sched", "deliver", fs.DeliverNs, n, inPath)
	return nil
}

// traceDurable times the durability layer's calls directly with the
// cells' real row payloads: the journal appends of a computed cell
// (started + finished), the content-cache put, a resume of the
// journal, and cache lookups on a fresh run over the same directory.
func (tr *traceRun) traceDurable(root int, cells []cellTrace, tmp string) error {
	t := tr.t
	n := uint64(len(cells))
	for pass := 0; pass < durablePasses; pass++ {
		inPath := tr.on["durable"] && pass == 0
		if err := func() error {
			dir, err := os.MkdirTemp(tmp, "durable-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			run, err := durable.Open(dir, nil)
			if err != nil {
				return err
			}
			sp := t.begin(root, "durable", "journal", inPath)
			for _, c := range cells {
				run.CellStarted(c.workload, c.target, c.hash)
				run.CellFinished(c.workload, c.target, c.hash, c.payload, true)
			}
			t.end(sp, n)
			cache, err := durable.OpenCache(durable.CachePath(dir))
			if err != nil {
				return err
			}
			sp = t.begin(root, "durable", "cache_put", inPath)
			for _, c := range cells {
				if err := cache.Put(c.hash, c.payload); err != nil {
					return err
				}
			}
			t.end(sp, n)
			run.RunComplete()
			if err := run.Close(); err != nil {
				return err
			}
			if st := run.Stats(); st.IOErrors > 0 {
				return fmt.Errorf("durable: %d journal I/O errors", st.IOErrors)
			}

			sp = t.begin(root, "durable", "resume", false)
			resumed, err := durable.Resume(dir, nil)
			t.end(sp, 1)
			if err != nil {
				return err
			}
			if err := resumed.Close(); err != nil {
				return err
			}
			warm, err := durable.Open(dir, nil)
			if err != nil {
				return err
			}
			defer warm.Close()
			sp = t.begin(root, "durable", "cache_get", false)
			for _, c := range cells {
				if warm.Lookup(c.workload, c.target, c.hash) == nil {
					return fmt.Errorf("durable: cache miss for %s/%s", c.workload, c.target)
				}
			}
			t.end(sp, n)
			return nil
		}(); err != nil {
			return err
		}
	}
	return nil
}

// traceManifest times turning the workload's rows into a canonical
// manifest document.
func (tr *traceRun) traceManifest(root int, progs []*ir.Program, rows [][]report.Row, scale string) error {
	for pass := 0; pass < manifestPasses; pass++ {
		sp := tr.t.begin(root, "telemetry", "manifest", false)
		m := telemetry.NewManifest("bench", scale)
		for i, p := range progs {
			report.AppendRows(m, p.Name, rows[i])
		}
		m.Canonicalize()
		err := m.Encode(io.Discard)
		tr.t.end(sp, 1)
		if err != nil {
			return err
		}
	}
	return nil
}

// runTrace is the traced child. It first makes one untimed warm-up rep
// and one timed untraced rep (the denominator of
// report.unattributed_frac, plus the pool statistics and retry count),
// then traces every cell, the durable layer and the manifest.
func runTrace(w workload, c childConfig) (*traceResult, error) {
	ref, err := loadExpected()
	if err != nil {
		return nil, err
	}
	progs := programOrders(w, c.scale, c.seed)()
	res := &traceResult{Programs: programNames(progs)}
	_, _, warm, err := checkedRep(w, c.scale, progs, ref, c.tmp, &res.Errors)
	if err != nil {
		return nil, err
	}
	rows, st, rr, err := checkedRep(w, c.scale, progs, ref, c.tmp, &res.Errors)
	if err != nil {
		return nil, err
	}
	res.Cells, res.Failed = warm.Cells+rr.Cells, warm.Failed+rr.Failed

	tr := &traceRun{
		t: &tracer{origin: time.Now()}, w: w, on: w.inConfig(),
		parallel:  sched.DefaultWorkers(w.ex.Parallel),
		textWords: map[string]uint64{}, badWords: map[string]uint64{}, fallbacks: map[string]uint64{},
	}
	for _, name := range analysisNames {
		if tr.on["core."+name] {
			tr.analyses = append(tr.analyses, name)
		} else {
			tr.bypassed = append(tr.bypassed, name)
		}
	}
	root := tr.t.begin(-1, "bench", "rep", false)
	tr.t.spans[root].ID = w.name
	traced := make([][]report.Row, len(progs))
	var cells []cellTrace
	for i, p := range progs {
		for j, tgt := range w.ex.Targets() {
			row, compiled, err := tr.traceCell(root, p, tgt)
			if err != nil {
				return nil, fmt.Errorf("trace %s/%s: %w", p.Name, tgt, err)
			}
			traced[i] = append(traced[i], row)
			payload, err := json.Marshal(&rows[i][j])
			if err != nil {
				return nil, err
			}
			cells = append(cells, cellTrace{
				workload: p.Name, target: tgt.String(), payload: payload,
				hash: durable.KeyInput{
					Engine: durable.EngineVersion, Workload: p.Name, Target: tgt.String(),
					Code: compiled.File.Write(), Analysis: w.name, Fusion: w.ex.Fusion.Spec(),
				}.Hash(),
			})
		}
	}
	if err := tr.traceDurable(root, cells, c.tmp); err != nil {
		return nil, err
	}
	if err := tr.traceManifest(root, progs, rows, c.scale.String()); err != nil {
		return nil, err
	}
	tr.t.end(root, uint64(len(cells)))

	// The traced path must compute exactly what RunSuite computed.
	_, failed, problems := checkRows(w, c.scale, progs, traced, ref)
	res.Failed += failed
	for _, p := range problems {
		res.Errors = append(res.Errors, "traced: "+p)
	}
	res.Cells += len(cells)

	self := selfTimes(tr.t.spans)
	res.Metrics = tr.metrics(self, rows, st, rr.WallS)
	res.SelfTimes = selfTable(tr.t.spans, self)
	res.Trace = c.tracePath
	return res, writeChromeTrace(c.tracePath, tr.t.spans, self)
}

// metrics derives every per-layer metric: times from span self times,
// the rest from the layers' own counters and the untraced rep.
func (tr *traceRun) metrics(self []int64, rows [][]report.Row, st *telemetry.SchedStats, untracedWall float64) map[string]float64 {
	type acc struct {
		ns     int64
		events uint64
	}
	sums := map[string]acc{}
	var inPathNs int64
	for i, s := range tr.t.spans {
		k := s.Cat + "/" + s.Name
		a := sums[k]
		a.ns += self[i]
		a.events += s.Events
		sums[k] = a
		if s.InPath {
			inPathNs += self[i]
		}
	}
	perEvent := func(k string) float64 {
		a := sums[k]
		if a.events == 0 {
			return 0
		}
		return float64(a.ns) / float64(a.events)
	}
	m := map[string]float64{
		"cc.compile_ms":                     float64(sums["cc/compile"].ns) / 1e6,
		"a64.load_ms":                       float64(sums["a64/load"].ns) / 1e6,
		"rv64.load_ms":                      float64(sums["rv64/load"].ns) / 1e6,
		"a64.step_ns_per_event":             perEvent("a64/simulate"),
		"rv64.step_ns_per_event":            perEvent("rv64/simulate"),
		"simeng.events":                     float64(sums["a64/simulate"].events + sums["rv64/simulate"].events),
		"fusion.ns_per_event":               perEvent("fusion/fusion"),
		"telemetry.tee.ns_per_event":        perEvent("telemetry/tee"),
		"telemetry.manifest_ms":             perEvent("telemetry/manifest") / 1e6,
		"sched.fanout.deliver_ns_per_event": perEvent("sched/deliver"),
		"durable.journal_append_ms":         perEvent("durable/journal") / 1e6,
		"durable.cache_put_ms":              perEvent("durable/cache_put") / 1e6,
		"durable.resume_ms":                 perEvent("durable/resume") / 1e6,
		"durable.cache_get_us":              perEvent("durable/cache_get") / 1e3,
		"core.critpath.dense_mib":           float64(tr.denseWords) * 8 / (1 << 20),
		"core.critpath.map_entries":         float64(tr.mapEntries),
		"sched.pool.busy_frac":              st.BusySeconds / (st.WallSeconds * float64(st.Workers)),
		"sched.pool.blocked_frac":           st.BlockedSeconds / (st.WallSeconds * float64(st.Workers)),
	}
	for _, name := range analysisNames {
		m["core."+name+".ns_per_event"] = perEvent("core/sink:" + name)
	}
	for _, arch := range []string{"a64", "rv64"} {
		m[arch+".text_words"] = float64(tr.textWords[arch])
		m[arch+".bad_words"] = float64(tr.badWords[arch])
		m[arch+".fallbacks"] = float64(tr.fallbacks[arch])
	}
	m["fusion.out_per_in"] = float64(tr.fusOut) / float64(max(tr.fusIn, 1))
	retries := 0
	for _, rs := range rows {
		for i := range rs {
			retries += rs[i].Attempts - 1
		}
	}
	m["report.retries"] = float64(retries)
	// The untraced rep ran on Parallel workers, so its capacity is
	// wall x workers; the traced layers ran one at a time.
	m["report.unattributed_frac"] = 1 - float64(inPathNs)/(untracedWall*1e9*float64(tr.parallel))
	return m
}

// selfTable sums self time per layer (cat/name), largest first.
func selfTable(spans []span, self []int64) []selfTime {
	idx := map[string]int{}
	var out []selfTime
	for i, s := range spans {
		k := s.Cat + "/" + s.Name
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, selfTime{Layer: k})
		}
		out[j].SelfMs += float64(self[i]) / 1e6
		out[j].Spans++
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
// Timestamps are whole microseconds; the exact self time of each span
// is in its args.
func writeChromeTrace(path string, spans []span, self []int64) error {
	var buf bytes.Buffer
	cw, err := telemetry.NewChromeTraceWriter(&buf)
	if err != nil {
		return err
	}
	for i, s := range spans {
		args := map[string]string{"events": strconv.FormatUint(s.Events, 10), "self_ns": strconv.FormatInt(self[i], 10)}
		if s.ID != "" {
			args["id"] = s.ID
		}
		ev := telemetry.ChromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts: uint64(s.Start / 1e3), Dur: uint64(s.Dur / 1e3),
		}
		if err := cw.Emit(ev); err != nil {
			return err
		}
	}
	if err := cw.Close(); err != nil {
		return err
	}
	return durable.WriteFileAtomic(path, buf.Bytes(), 0o644)
}
