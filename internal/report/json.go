package report

import (
	"fmt"

	"isacmp/internal/ir"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// RowRecord converts one experiment row into a manifest run record —
// the single conversion point every CLI's -json mode shares, so the
// manifest schema stays uniform across subcommands.
func RowRecord(workload string, r Row) telemetry.RunRecord {
	rec := telemetry.RunRecord{
		Workload:    workload,
		Target:      r.Target.String(),
		Core:        r.Core,
		WallSeconds: r.WallSeconds,
		Sinks:       r.Sinks,
		Tracker:     r.Tracker,
		Fusion:      r.Fusion,
		Counters:    r.Counters,
	}
	if r.WallSeconds > 0 {
		rec.MIPS = float64(r.Core.Instructions) / r.WallSeconds / 1e6
	}
	if r.Attempts > 1 {
		// Retries (attempts beyond the first) rather than attempts, so
		// the zero value is omitted and fault-free manifests stay
		// byte-identical.
		rec.Retries = r.Attempts - 1
	}
	res := &telemetry.ResultTable{
		PathLen:         r.PathLen,
		Other:           r.Other,
		CP:              r.CP,
		ILP:             r.ILP,
		RuntimeMS:       r.Runtime * 1e3,
		ScaledCP:        r.ScaledCP,
		ScaledILP:       r.ScaledILP,
		ScaledRuntimeMS: r.ScaledRuntime * 1e3,
		BranchDensity:   r.BranchDensity,
		BranchTaken:     r.BranchTaken,
	}
	for _, rc := range r.Regions {
		res.Regions = append(res.Regions, telemetry.RegionJSON{Kernel: rc.Name, Count: rc.Count})
	}
	for _, w := range r.Windows {
		res.Windows = append(res.Windows, telemetry.WindowJSON{
			Size: w.Size, Windows: w.Windows, MeanCP: w.MeanCP, MeanILP: w.MeanILP,
		})
	}
	for _, gc := range r.MixCounts {
		if gc.Count == 0 {
			continue
		}
		res.Mix = append(res.Mix, telemetry.MixJSON{
			Group: gc.Group.String(), Count: gc.Count, Fraction: gc.Fraction,
		})
	}
	rec.Results = res
	return rec
}

// AppendRows adds one record per healthy row to the manifest; FAILED
// rows go to the manifest `failures` block instead of `runs`.
func AppendRows(m *telemetry.Manifest, workload string, rows []Row) {
	for _, r := range rows {
		if r.Failed() {
			m.Failures = append(m.Failures, *r.Failure)
			continue
		}
		m.Runs = append(m.Runs, RowRecord(workload, r))
	}
}

// ParseScale maps the -scale flag values to workload scales.
func ParseScale(s string) (workloads.Scale, error) {
	switch s {
	case "tiny":
		return workloads.Tiny, nil
	case "small":
		return workloads.Small, nil
	case "paper":
		return workloads.Paper, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small or paper)", s)
}

// SelectBenchmarks resolves the -bench flag: empty selects the whole
// suite at the given scale.
func SelectBenchmarks(name string, s workloads.Scale) ([]*ir.Program, error) {
	if name == "" {
		return workloads.Suite(s), nil
	}
	p := workloads.ByName(name, s)
	if p == nil {
		return nil, fmt.Errorf("unknown benchmark %q (want one of %v)", name, workloads.Names())
	}
	return []*ir.Program{p}, nil
}
