package main

import (
	"time"

	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/report"
	"isacmp/internal/workloads"
)

// workload is one set of inputs the benchmark runs: a program list and
// the report.Experiment a CLI would build for that configuration.
// Every workload except stream-long runs the paper's five kernels at
// workloads.Small on the four targets (20 cells), so two workloads
// differ only in which layers they switch on.
type workload struct {
	name string
	why  string
	// progs builds the programs at the given scale (tests use Tiny).
	progs func(workloads.Scale) []*ir.Program
	ex    report.Experiment
	// durable opens a fresh durable.Run directory for every rep (cold
	// cache, fsync'd journal) and attaches a fresh metrics registry.
	durable bool
}

var benchWorkloads = []workload{
	{
		name:  "paper-matrix",
		why:   "default reproduction run (all four analyses, sequential); windowed CP dominates, so a producer-index rewrite must show here",
		progs: workloads.Suite,
		ex:    report.Experiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true, Parallel: 1},
	},
	{
		name:  "pathlen-sim",
		why:   "path length only: simulation and predecode dominate and no CP tracker runs, so CP-tracker changes must leave it unchanged",
		progs: workloads.Suite,
		ex:    report.Experiment{PathLength: true, Parallel: 1},
	},
	{
		name:  "armed-fanout",
		why:   "production configuration: fusion, fan-out, sharded windowed CP, journal, cache, watchdog and retry on two workers",
		progs: workloads.Suite,
		ex: report.Experiment{
			PathLength: true, CritPath: true, Scaled: true, Windowed: true,
			Parallel:    2,
			Fusion:      armedFusion,
			CellTimeout: time.Hour,
			Retries:     1,
		},
		durable: true,
	},
	{
		name:  "stream-long",
		why:   "long STREAM cells whose ~12 MB working set is far beyond L2; CP-tracker memory dominates time and RSS",
		progs: streamLong,
		ex:    report.Experiment{PathLength: true, CritPath: true, Scaled: true, Parallel: 1},
	},
}

// armedFusion is armed-fanout's fusion config (-fusion=both); the
// traced run also measures it off path on the other workloads.
var armedFusion = fusion.Config{RV64: true, A64: true, Rules: fusion.AllRules}

// streamLong is STREAM(500_000, 2): 121.5 M events over four cells at
// the benchmark scale. The paper-scale cell is ~100x longer and stays
// out of the timed set.
func streamLong(s workloads.Scale) []*ir.Program {
	if s == workloads.Tiny {
		return []*ir.Program{workloads.STREAM(2_000, 2)}
	}
	return []*ir.Program{workloads.STREAM(500_000, 2)}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inConfig reports which layers (named as in the per-layer metrics)
// the workload's untraced run goes through. The traced run measures
// every layer on every workload, the bypassed ones off the path.
func (w workload) inConfig() map[string]bool {
	ex := w.ex
	return map[string]bool{
		"core.pathlen":          ex.PathLength,
		"core.critpath":         ex.CritPath,
		"core.scaledcp":         ex.Scaled,
		"core.windowcp":         ex.Windowed && ex.Parallel == 1,
		"core.windowcp_sharded": ex.Windowed && ex.Parallel > 1,
		"core.depdist":          false, // not wired into RunSuite
		"fusion":                ex.Fusion.Enabled(),
		"telemetry.tee":         ex.Parallel == 1,
		"sched.fanout":          ex.Parallel > 1,
		"durable":               w.durable,
	}
}
