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
type analysis struct {
	name string
	on   func(ex *Experiment) bool
	new  func(ex *Experiment, c *cc.Compiled) isa.Sink
	fill func(s isa.Sink, row *Row)
}

var analyses = []analysis{
	{
		name: "pathlen",
		on:   func(ex *Experiment) bool { return ex.PathLength },
		new:  func(_ *Experiment, c *cc.Compiled) isa.Sink { return core.NewPathLength(c.File.Symbols) },
		fill: func(s isa.Sink, row *Row) {
			pl := s.(*core.PathLength)
			row.Regions, row.Other = pl.Counts(), pl.Other()
		},
	},
	{
		name: "critpath",
		on:   func(ex *Experiment) bool { return ex.CritPath },
		new: func(ex *Experiment, c *cc.Compiled) isa.Sink {
			if ex.joint() {
				return denseCP(core.NewJointCritPath(ex.latencies()), c)
			}
			return denseCP(core.NewCritPath(), c)
		},
		// A unit-only tracker reports zero scaled metrics, which leaves
		// the row's Table 2 fields at their zero values.
		fill: func(s isa.Sink, row *Row) {
			cp := s.(*core.CritPath)
			row.CP, row.ILP, row.Runtime = cp.CP(), cp.ILP(), cp.RuntimeSeconds()
			row.ScaledCP, row.ScaledILP, row.ScaledRuntime = cp.ScaledCP(), cp.ScaledILP(), cp.ScaledRuntimeSeconds()
			row.Tracker = trackerStats(cp)
		},
	},
	{
		name: "scaledcp",
		on:   func(ex *Experiment) bool { return ex.Scaled && !ex.joint() },
		new: func(ex *Experiment, c *cc.Compiled) isa.Sink {
			return denseCP(core.NewScaledCritPath(ex.latencies()), c)
		},
		fill: func(s isa.Sink, row *Row) {
			cp := s.(*core.CritPath)
			row.ScaledCP, row.ScaledILP, row.ScaledRuntime = cp.ScaledCP(), cp.ScaledILP(), cp.ScaledRuntimeSeconds()
			row.Tracker = trackerStats(cp)
		},
	},
	{
		name: "windowcp",
		on:   func(ex *Experiment) bool { return ex.Windowed },
		new: func(ex *Experiment, _ *cc.Compiled) isa.Sink {
			sizes := ex.WindowSizes
			if sizes == nil {
				sizes = core.PaperWindowSizes()
			}
			return core.NewWindowedCritPathStride(sizes, ex.WindowStride)
		},
		fill: func(s isa.Sink, row *Row) { row.Windows = s.(*core.WindowedCritPath).Results() },
	},
	{
		name: "mix",
		on:   func(ex *Experiment) bool { return ex.Mix },
		new:  func(*Experiment, *cc.Compiled) isa.Sink { return core.NewMix() },
		fill: func(s isa.Sink, row *Row) { row.MixCounts = s.(*core.Mix).Counts() },
	},
	{
		name: "branch",
		on:   func(ex *Experiment) bool { return ex.Mix },
		new:  func(*Experiment, *cc.Compiled) isa.Sink { return core.NewBranchProfile() },
		fill: func(s isa.Sink, row *Row) {
			br := s.(*core.BranchProfile)
			row.Branches, row.BranchDensity, row.BranchTaken = br.Branches(), br.Density(), br.TakenRate()
		},
	},
}

// joint reports whether one tracker walks the events for both Table 1
// and Table 2. Its sink row carries the joint pass's time, and the
// cell's scaledcp row is carried by it (telemetry.AddCarriedRow).
func (ex *Experiment) joint() bool { return ex.CritPath && ex.Scaled }

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
	names []string
	sinks []isa.Sink
	fills []func(isa.Sink, *Row)
}

// NewAnalysisSet builds the sinks of the analyses ex selects for one
// compiled binary.
func NewAnalysisSet(ex Experiment, c *cc.Compiled) *AnalysisSet {
	a := &AnalysisSet{}
	for _, an := range analyses {
		if an.on(&ex) {
			a.add(an.name, an.new(&ex, c))
			a.fills = append(a.fills, an.fill)
		}
	}
	return a
}

func (a *AnalysisSet) add(name string, s isa.Sink) {
	a.names = append(a.names, name)
	a.sinks = append(a.sinks, s)
}

// Sinks returns the sinks in attachment order.
func (a *AnalysisSet) Sinks() []isa.Sink { return a.sinks }

// Fill copies every analysis result into row.
func (a *AnalysisSet) Fill(row *Row) {
	for i, fill := range a.fills {
		fill(a.sinks[i], row)
	}
}
