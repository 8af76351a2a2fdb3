package isacmp

import (
	"fmt"
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/report"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
)

// The benchmark harness regenerates every table and figure of the
// paper, one testing.B benchmark per artefact:
//
//	BenchmarkFig1PathLength   Figure 1 — per-kernel path lengths
//	BenchmarkTable1CritPath   Table 1  — critical path / ILP / runtime
//	BenchmarkTable2ScaledCP   Table 2  — latency-scaled critical path
//	BenchmarkFig2WindowedCP   Figure 2 — mean ILP per window size
//	BenchmarkOoOCore          section 8 — finite-resource timing models
//	BenchmarkSimulatorRate    raw simulation throughput
//
// Each reports its headline numbers as benchmark metrics, so
// `go test -bench=. -benchmem` prints the reproduced values next to
// the timing. The default scale is Small; results at Paper scale
// (hours of simulation) come from `cmd/isacmp -scale paper`.

const benchScale = Small

func benchTargets(b *testing.B, names []string, run func(b *testing.B, prog *Program, tgt Target)) {
	b.Helper()
	for _, name := range names {
		prog := Workload(name, benchScale)
		for _, tgt := range Targets() {
			b.Run(fmt.Sprintf("%s/%s", name, tgt), func(b *testing.B) {
				run(b, prog, tgt)
			})
		}
	}
}

// BenchmarkFig1PathLength regenerates the Figure 1 data: dynamic
// instruction counts per benchmark per target.
func BenchmarkFig1PathLength(b *testing.B) {
	benchTargets(b, Workloads(), func(b *testing.B, prog *Program, tgt Target) {
		bin, err := Compile(prog, tgt)
		if err != nil {
			b.Fatal(err)
		}
		var insts uint64
		for i := 0; i < b.N; i++ {
			res, err := bin.Analyse(Analyses{PathLength: true})
			if err != nil {
				b.Fatal(err)
			}
			insts = res.Stats.Instructions
		}
		b.ReportMetric(float64(insts), "pathlen")
	})
}

// BenchmarkTable1CritPath regenerates the Table 1 rows.
func BenchmarkTable1CritPath(b *testing.B) {
	benchTargets(b, Workloads(), func(b *testing.B, prog *Program, tgt Target) {
		bin, err := Compile(prog, tgt)
		if err != nil {
			b.Fatal(err)
		}
		var cp uint64
		var ilp float64
		for i := 0; i < b.N; i++ {
			res, err := bin.Analyse(Analyses{CritPath: true})
			if err != nil {
				b.Fatal(err)
			}
			cp, ilp = res.CP, res.ILP
		}
		b.ReportMetric(float64(cp), "CP")
		b.ReportMetric(ilp, "ILP")
	})
}

// BenchmarkTable2ScaledCP regenerates the Table 2 rows.
func BenchmarkTable2ScaledCP(b *testing.B) {
	benchTargets(b, Workloads(), func(b *testing.B, prog *Program, tgt Target) {
		bin, err := Compile(prog, tgt)
		if err != nil {
			b.Fatal(err)
		}
		var cp uint64
		var ilp float64
		for i := 0; i < b.N; i++ {
			res, err := bin.Analyse(Analyses{ScaledCritPath: true})
			if err != nil {
				b.Fatal(err)
			}
			cp, ilp = res.ScaledCP, res.ScaledILP
		}
		b.ReportMetric(float64(cp), "scaledCP")
		b.ReportMetric(ilp, "ILP")
	})
}

// BenchmarkFig2WindowedCP regenerates the Figure 2 series (GCC 12.2
// binaries only, like the paper).
func BenchmarkFig2WindowedCP(b *testing.B) {
	for _, name := range Workloads() {
		prog := Workload(name, benchScale)
		for _, arch := range []Arch{AArch64, RV64} {
			tgt := Target{Arch: arch, Flavor: GCC12}
			b.Run(fmt.Sprintf("%s/%s", name, tgt), func(b *testing.B) {
				bin, err := Compile(prog, tgt)
				if err != nil {
					b.Fatal(err)
				}
				var windows []WindowResult
				for i := 0; i < b.N; i++ {
					res, err := bin.Analyse(Analyses{Windowed: true})
					if err != nil {
						b.Fatal(err)
					}
					windows = res.Windows
				}
				for _, wr := range windows {
					b.ReportMetric(wr.MeanILP, fmt.Sprintf("ILP@%d", wr.Size))
				}
			})
		}
	}
}

// BenchmarkOoOCore exercises the finite-resource out-of-order model at
// the ROB sizes of the windowed analysis (the paper's future work).
func BenchmarkOoOCore(b *testing.B) {
	prog := Workload("stream", benchScale)
	for _, rob := range []int{64, 200, 500} {
		for _, arch := range []Arch{AArch64, RV64} {
			tgt := Target{Arch: arch, Flavor: GCC12}
			b.Run(fmt.Sprintf("rob%d/%s", rob, tgt), func(b *testing.B) {
				bin, err := Compile(prog, tgt)
				if err != nil {
					b.Fatal(err)
				}
				var stats Stats
				for i := 0; i < b.N; i++ {
					model := NewOoOModel()
					model.ROBSize = rob
					stats, err = bin.RunOoO(model)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(stats.Instructions)/float64(stats.Cycles), "IPC")
			})
		}
	}
}

// BenchmarkInOrderCore exercises the dual-issue in-order model.
func BenchmarkInOrderCore(b *testing.B) {
	prog := Workload("stream", benchScale)
	for _, arch := range []Arch{AArch64, RV64} {
		tgt := Target{Arch: arch, Flavor: GCC12}
		b.Run(tgt.String(), func(b *testing.B) {
			bin, err := Compile(prog, tgt)
			if err != nil {
				b.Fatal(err)
			}
			var stats Stats
			for i := 0; i < b.N; i++ {
				stats, err = bin.RunInOrder()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Instructions)/float64(stats.Cycles), "IPC")
		})
	}
}

// BenchmarkSimulatorRate measures raw emulation throughput with no
// analyses attached, in simulated instructions per second.
func BenchmarkSimulatorRate(b *testing.B) {
	prog := Workload("stream", benchScale)
	for _, tgt := range Targets() {
		b.Run(tgt.String(), func(b *testing.B) {
			bin, err := Compile(prog, tgt)
			if err != nil {
				b.Fatal(err)
			}
			var insts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := bin.Run()
				if err != nil {
					b.Fatal(err)
				}
				insts = stats.Instructions
			}
			b.StopTimer()
			rate := float64(insts) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate/1e6, "Minst/s")
		})
	}
}

// BenchmarkTelemetryOverhead measures what observability costs: the
// same EmulationCore run with the standard analysis set attached bare
// (the plain isa.MultiSink fan-out Analyse uses) versus the matrix
// runner's sequential cell, behind the telemetry tee, which times
// every batch into each analysis and into the run-metrics consumer —
// the configuration every CLI run uses. The runner also compiles the
// cell each time. The budget is <= 5% extra wall time; compare the
// sub-benchmarks' ns/op (benchstat, or by eye).
func BenchmarkTelemetryOverhead(b *testing.B) {
	prog := Workload("stream", benchScale)
	tgt := Target{Arch: AArch64, Flavor: GCC12}
	bin, err := Compile(prog, tgt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bare", func(b *testing.B) {
		sel := Analyses{PathLength: true, CritPath: true, Mix: true, Branches: true}
		for i := 0; i < b.N; i++ {
			if _, err := bin.Analyse(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tee+metrics", func(b *testing.B) {
		ex := report.Experiment{
			PathLength: true, CritPath: true, Mix: true, Columns: []Target{tgt},
			Parallel: 1, Metrics: telemetry.NewRegistry(),
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := report.RunSuite([]*ir.Program{prog}, ex); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchFullMatrix runs the complete paper matrix — every workload,
// every target, all four analyses — through report.RunSuite with the
// given worker count. Tiny scale keeps one iteration under a second so
// the sequential/parallel pair is cheap to compare with benchstat;
// TestParallelByteIdentical pins that both produce identical output.
func benchFullMatrix(b *testing.B, parallel int) {
	progs := Suite(Tiny)
	ex := report.Experiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true, Parallel: parallel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := report.RunSuite(progs, ex); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullMatrixSequential is the -parallel 1 reference: one
// goroutine, every cell and analysis in order.
func BenchmarkFullMatrixSequential(b *testing.B) { benchFullMatrix(b, 1) }

// BenchmarkFullMatrixParallel fans the same matrix over GOMAXPROCS
// workers (cells over the pool, the trace fanned out to the analyses
// inside each cell). Results are byte-identical to the sequential run;
// with N real cores the wall time approaches 1/N.
func BenchmarkFullMatrixParallel(b *testing.B) { benchFullMatrix(b, 0) }

// BenchmarkStepVsStepN compares the per-Step interface against the
// batched StepN fast path on the same machine, in ns per retired
// instruction, for STREAM on each ISA's fetch–execute loop. Step is
// StepN over one event, so the difference is what a batch saves: a
// call, the halt check and the loads and stores of the PC and retired
// count per instruction. Both paths are allocation-free in steady
// state (allocs/op rounds to 0; TestStepNZeroAllocMachines asserts it
// exactly).
func BenchmarkStepVsStepN(b *testing.B) {
	prog := Workload("stream", benchScale)
	for _, arch := range []Arch{AArch64, RV64} {
		bin, err := Compile(prog, Target{Arch: arch, Flavor: GCC12})
		if err != nil {
			b.Fatal(err)
		}
		fresh := func(b *testing.B) simeng.Machine {
			m, _, err := bin.NewMachine()
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		b.Run(arch.String()+"/Step", func(b *testing.B) {
			mach := fresh(b)
			var ev isa.Event
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done, err := mach.Step(&ev)
				if err != nil {
					b.Fatal(err)
				}
				if done {
					b.StopTimer()
					mach = fresh(b)
					b.StartTimer()
				}
			}
		})
		b.Run(arch.String()+"/StepN", func(b *testing.B) {
			mach := fresh(b)
			buf := make([]isa.Event, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				take := b.N - n
				if take > len(buf) {
					take = len(buf)
				}
				k, done, err := mach.StepN(buf[:take])
				if err != nil {
					b.Fatal(err)
				}
				n += k
				if done {
					b.StopTimer()
					mach = fresh(b)
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkCritPathDenseVsMap compares the memory dependency tracker
// over the two-level page table (SetDenseRange, the configuration
// every real run uses) against the sparse map fallback, in ns per
// event over a strided load/store stream. The dense path is
// allocation-free once the touched pages exist
// (TestCritPathEventsZeroAlloc asserts it exactly). The joint case
// tracks Table 1's and Table 2's chains in one dense tracker, as a run
// that asks for both does; separate runs the two one-chain trackers
// one after the other over the same stream, the work the joint
// tracker replaces.
func BenchmarkCritPathDenseVsMap(b *testing.B) {
	const base = 0x200000
	const span = 1 << 22 // 4 MiB array span
	evs := make([]isa.Event, 4096)
	for i := range evs {
		addr := base + uint64(i*264)%span // stride co-prime with the page size
		ev := &evs[i]
		if i%2 == 0 {
			ev.StoreAddr, ev.StoreSize = addr, 8
		} else {
			ev.LoadAddr, ev.LoadSize = addr, 8
			ev.AddDst(isa.IntReg(1))
		}
	}
	dense := func(c *core.CritPath) *core.CritPath {
		c.SetDenseRange(base, span)
		return c
	}
	run := func(b *testing.B, cs ...*core.CritPath) {
		for _, c := range cs {
			c.Events(evs) // warm up: materialize pages / seed the map
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += len(evs) {
			for _, c := range cs {
				c.Events(evs)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	}
	lat := simeng.TX2Latencies()
	b.Run("dense", func(b *testing.B) { run(b, dense(core.NewCritPath())) })
	b.Run("map", func(b *testing.B) { run(b, core.NewCritPath()) })
	b.Run("joint", func(b *testing.B) { run(b, dense(core.NewJointCritPath(lat))) })
	b.Run("separate", func(b *testing.B) {
		run(b, dense(core.NewCritPath()), dense(core.NewScaledCritPath(lat)))
	})
}

// recordedCell returns the binary of one cell (LBM, RV64 GCC 12.2)
// and the first 2^20 events of its run (56 MiB, of 3.7 M at Small
// scale), the stream the layer benchmarks replay.
func recordedCell(b *testing.B) (*Binary, []Event) {
	b.Helper()
	bin, err := Compile(Workload("lbm", benchScale), Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		b.Fatal(err)
	}
	evs := make([]Event, 0, 1<<20)
	record := SinkFunc(func(ev *Event) {
		if len(evs) < cap(evs) {
			evs = append(evs, *ev)
		}
	})
	if _, err := bin.Run(record); err != nil {
		b.Fatal(err)
	}
	return bin, evs
}

// replay feeds b.N events of evs to a sink's Events in 4096-event
// batches, wrapping at the end, calls finish, and reports ns/event.
func replay(b *testing.B, evs []Event, events func([]Event), finish func()) {
	b.ReportAllocs()
	b.ResetTimer()
	n, at := 0, 0
	for n < b.N {
		batch := evs[at:min(at+4096, len(evs))]
		events(batch)
		n += len(batch)
		if at += len(batch); at == len(evs) {
			at = 0
		}
	}
	if finish != nil {
		finish()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
}

// BenchmarkWindowedCP measures the windowed-CP layer alone, in ns per
// event, over the recorded cell (recordedCell). paper runs the paper's
// sizes at stride W/2, which fold by lanes; stride1 runs them at
// stride 1, whose lane ring would exceed its budget, so they keep the
// per-window fold. merged runs the paper's sizes at stride W/2 in the
// walk of a joint critical-path tracker over the cell's dense range
// (CritPath.MergeWindowed), so it times Tables 1 and 2 and Figure 2
// together, as a run with all of them attaches them. All three are
// allocation-free in steady state (TestWindowedEventsZeroAlloc and
// TestCritPathEventsZeroAlloc assert it exactly).
func BenchmarkWindowedCP(b *testing.B) {
	bin, evs := recordedCell(b)
	run := func(b *testing.B, w *core.WindowedCritPath) {
		replay(b, evs, w.Events, func() { w.Results() })
	}
	b.Run("paper", func(b *testing.B) { run(b, core.NewWindowedCritPathStride(core.PaperWindowSizes(), 0)) })
	b.Run("stride1", func(b *testing.B) { run(b, core.NewWindowedCritPathStride(core.PaperWindowSizes(), 1)) })
	b.Run("merged", func(b *testing.B) {
		w := core.NewWindowedCritPathStride(core.PaperWindowSizes(), 0)
		cp := core.NewJointCritPath(simeng.TX2Latencies())
		cp.SetDenseRange(cc.TextBase, bin.compiled.MemSize)
		cp.MergeWindowed(w)
		replay(b, evs, cp.Events, func() { w.Results() })
	})
}

// BenchmarkPathLength measures the path-length layer alone, in ns per
// event: the first 2^14 events of the recorded cell (recordedCell)
// replayed through a PathLength over the cell's symbols. The layer
// does little per event, so replaying all 56 MiB would time the
// memory system; 896 KiB stays in L2, as the run loop's 224 KiB
// batches do. It is allocation-free in steady state
// (TestPathLengthEventsZeroAlloc asserts it exactly).
func BenchmarkPathLength(b *testing.B) {
	bin, evs := recordedCell(b)
	replay(b, evs[:1<<14], core.NewPathLength(bin.compiled.File.Symbols).Events, nil)
}

// BenchmarkCompile measures compilation cost (IR to ELF).
func BenchmarkCompile(b *testing.B) {
	for _, name := range Workloads() {
		prog := Workload(name, benchScale)
		tgt := Target{Arch: AArch64, Flavor: GCC12}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(prog, tgt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation measures what each code-generation idiom the paper
// identifies contributes to path length, by disabling them one at a
// time (DESIGN.md's ablation study). The reported metric is the path
// length relative to the fully optimised binary.
func BenchmarkAblation(b *testing.B) {
	ablations := []struct {
		name string
		opts CompilerOptions
	}{
		{"no-fma", CompilerOptions{NoFMA: true}},
		{"no-strength-reduction", CompilerOptions{NoStrengthReduction: true}},
		{"no-hoisting", CompilerOptions{NoHoisting: true}},
	}
	for _, name := range []string{"stream", "cloverleaf", "lbm"} {
		prog := Workload(name, benchScale)
		for _, arch := range []Arch{AArch64, RV64} {
			tgt := Target{Arch: arch, Flavor: GCC12}
			baseBin, err := Compile(prog, tgt)
			if err != nil {
				b.Fatal(err)
			}
			baseStats, err := baseBin.Run()
			if err != nil {
				b.Fatal(err)
			}
			for _, ab := range ablations {
				b.Run(fmt.Sprintf("%s/%s/%s", name, tgt, ab.name), func(b *testing.B) {
					bin, err := CompileWithOptions(prog, tgt, ab.opts)
					if err != nil {
						b.Fatal(err)
					}
					var stats Stats
					for i := 0; i < b.N; i++ {
						stats, err = bin.Run()
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(stats.Instructions)/float64(baseStats.Instructions), "pathlen-ratio")
				})
			}
		}
	}
}
