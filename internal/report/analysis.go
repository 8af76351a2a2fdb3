package report

import (
	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/isa"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
)

// analysis is one of the paper's analyses, declared once: the sink
// name a cell attaches it under, whether an experiment selects it, its
// sink for one compiled binary, and how the sink's results fill a row.
// runOne and the facade's Binary.Analyse both build their sinks from
// this table, so adding an analysis is one entry.
//
// An analysis whose carried reports true is computed in the walk of
// the sink named host, which an earlier entry attached: new gets that
// sink and returns the one fill reads, the analysis attaches no sink
// of its own, and its sink row counts the host's events and carries no
// time, which the host's row holds.
type analysis struct {
	name    string
	on      func(ex *Experiment) bool
	host    string
	carried func(ex *Experiment) bool
	new     func(ex *Experiment, c *cc.Compiled, host isa.Sink) isa.Sink
	fill    func(s isa.Sink, row *Row)
}

var analyses = []analysis{
	{
		name: "pathlen",
		on:   func(ex *Experiment) bool { return ex.PathLength },
		new:  func(_ *Experiment, c *cc.Compiled, _ isa.Sink) isa.Sink { return core.NewPathLength(c.File.Symbols) },
		fill: func(s isa.Sink, row *Row) {
			pl := s.(*core.PathLength)
			row.Regions, row.Other = pl.Counts(), pl.Other()
		},
	},
	{
		name: "critpath",
		on:   func(ex *Experiment) bool { return ex.CritPath },
		new: func(ex *Experiment, c *cc.Compiled, _ isa.Sink) isa.Sink {
			if ex.Scaled {
				return denseCP(core.NewJointCritPath(ex.latencies()), c)
			}
			return denseCP(core.NewCritPath(), c)
		},
		fill: func(s isa.Sink, row *Row) {
			cp := s.(*core.CritPath)
			row.CP, row.ILP, row.Runtime = cp.CP(), cp.ILP(), cp.RuntimeSeconds()
			row.Tracker = trackerStats(cp)
		},
	},
	{
		// The joint tracker follows the scaled chain beside the unit one.
		name:    "scaledcp",
		on:      func(ex *Experiment) bool { return ex.Scaled },
		host:    "critpath",
		carried: func(ex *Experiment) bool { return ex.CritPath },
		new: func(ex *Experiment, c *cc.Compiled, host isa.Sink) isa.Sink {
			if host != nil {
				return host
			}
			return denseCP(core.NewScaledCritPath(ex.latencies()), c)
		},
		fill: func(s isa.Sink, row *Row) {
			cp := s.(*core.CritPath)
			row.ScaledCP, row.ScaledILP, row.ScaledRuntime = cp.ScaledCP(), cp.ScaledILP(), cp.ScaledRuntimeSeconds()
			row.Tracker = trackerStats(cp)
		},
	},
	{
		// The joint tracker's walk resolves the windows' producers too.
		name:    "windowcp",
		on:      func(ex *Experiment) bool { return ex.Windowed },
		host:    "critpath",
		carried: func(ex *Experiment) bool { return ex.CritPath && ex.Scaled },
		new: func(ex *Experiment, _ *cc.Compiled, host isa.Sink) isa.Sink {
			sizes := ex.WindowSizes
			if sizes == nil {
				sizes = core.PaperWindowSizes()
			}
			w := core.NewWindowedCritPathStride(sizes, ex.WindowStride)
			if host != nil {
				host.(*core.CritPath).MergeWindowed(w)
			}
			return w
		},
		fill: func(s isa.Sink, row *Row) { row.Windows = s.(*core.WindowedCritPath).Results() },
	},
	{
		name: "mix",
		on:   func(ex *Experiment) bool { return ex.Mix },
		new:  func(*Experiment, *cc.Compiled, isa.Sink) isa.Sink { return core.NewMix() },
		fill: func(s isa.Sink, row *Row) { row.MixCounts = s.(*core.Mix).Counts() },
	},
	{
		name: "branch",
		on:   func(ex *Experiment) bool { return ex.Mix },
		new:  func(*Experiment, *cc.Compiled, isa.Sink) isa.Sink { return core.NewBranchProfile() },
		fill: func(s isa.Sink, row *Row) {
			br := s.(*core.BranchProfile)
			row.Branches, row.BranchDensity, row.BranchTaken = br.Branches(), br.Density(), br.TakenRate()
		},
	},
}

// latencies is the latency model of the scaled critical path.
func (ex *Experiment) latencies() *simeng.LatencyModel {
	if ex.Latencies != nil {
		return ex.Latencies
	}
	return simeng.TX2Latencies()
}

// denseCP tracks the binary's memory image through the tracker's page
// table rather than its map.
func denseCP(cp *core.CritPath, c *cc.Compiled) *core.CritPath {
	cp.SetDenseRange(cc.TextBase, c.MemSize)
	return cp
}

func trackerStats(cp *core.CritPath) *telemetry.TrackerStats {
	ts := cp.TrackerStats()
	return &telemetry.TrackerStats{MapEntries: ts.MapEntries, DenseWords: ts.DenseWords}
}

// AnalysisSet is the named sinks one cell attaches: the selected
// analyses in table order, then the timing model when a run asks for
// one.
type AnalysisSet struct {
	// names lists every sink row in order; carried[i] marks a row
	// whose analysis attaches no sink of its own.
	names   []string
	carried []bool
	sinks   []isa.Sink // the attached sinks, in the order of the rows not carried
	fills   []func(*Row)
}

// NewAnalysisSet builds the sinks of the analyses ex selects for one
// compiled binary.
func NewAnalysisSet(ex Experiment, c *cc.Compiled) *AnalysisSet {
	a := &AnalysisSet{}
	built := map[string]isa.Sink{}
	for _, an := range analyses {
		if !an.on(&ex) {
			continue
		}
		var host isa.Sink
		if an.carried != nil && an.carried(&ex) {
			host = built[an.host]
		}
		s := an.new(&ex, c, host)
		built[an.name] = s
		if host == nil {
			a.add(an.name, s)
		} else {
			a.names, a.carried = append(a.names, an.name), append(a.carried, true)
		}
		a.fills = append(a.fills, func(row *Row) { an.fill(s, row) })
	}
	return a
}

func (a *AnalysisSet) add(name string, s isa.Sink) {
	a.names, a.carried = append(a.names, name), append(a.carried, false)
	a.sinks = append(a.sinks, s)
}

// Sinks returns the sinks in attachment order.
func (a *AnalysisSet) Sinks() []isa.Sink { return a.sinks }

// Fill copies every analysis result into row.
func (a *AnalysisSet) Fill(row *Row) {
	for _, fill := range a.fills {
		fill(row)
	}
}
