package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"isacmp/internal/a64"
	"isacmp/internal/cc"
	"isacmp/internal/durable"
	"isacmp/internal/ir"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/report"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// setupPasses is how many times setup_s sets every cell up. One pass
// is tens of milliseconds and page-fault bound, so single passes
// scatter widely; the median of many is steadier.
const setupPasses = 31

// repResult is one timed RunSuite call.
type repResult struct {
	// Programs is the order the programs were passed to RunSuite in.
	Programs []string `json:"programs"`
	WallS    float64  `json:"wall_s"`
	CPUS     float64  `json:"cpu_s"`
	Events   uint64   `json:"events"`
	// PeakRSSMiB is the process's peak resident set during the rep; on
	// a timed rep, without the calibrator's table.
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	// ProbeS is the mean of the calibration probes either side of the
	// rep; 0 on the warm-up rep.
	ProbeS float64 `json:"probe_s,omitempty"`
	Digest string  `json:"digest"`
	Cells  int     `json:"cells"`
	Failed int     `json:"failed"`
}

// hostScale is the factor that takes a time measured next to probes of
// probeS seconds to the reference host speed (see calibrate.go).
func hostScale(probeS float64) float64 { return probeRefS / probeS }

// e2eResult is what an end-to-end child reports to the parent.
type e2eResult struct {
	Warmup repResult   `json:"warmup"`
	Reps   []repResult `json:"reps"`
	Errors []string    `json:"errors,omitempty"`
}

// setupResult is what a setup child reports: one time per pass, and
// the mean of the probes either side of each pass. Setup runs in a
// process of its own because its passes allocate far more garbage than
// a rep does, which the reps' peak RSS would inherit.
type setupResult struct {
	SetupS []float64 `json:"setup_s"`
	ProbeS []float64 `json:"probe_s"`
}

// programOrders returns a generator of program orders: each call
// shuffles the workload's programs again, so the seed picks the whole
// sequence of orders. Every rep gets its own order, because on two
// workers the order moves a rep's time by up to ~15% (it decides which
// cells run last), and a run should measure the workload, not one
// order. Results are keyed by (workload, target), so nothing that is
// checked may depend on the order.
func programOrders(w workload, scale workloads.Scale, seed int64) func() []*ir.Program {
	progs := w.progs(scale)
	rng := rand.New(rand.NewSource(seed))
	return func() []*ir.Program {
		rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
		return append([]*ir.Program(nil), progs...)
	}
}

func programNames(progs []*ir.Program) []string {
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.Name
	}
	return names
}

// load is the load half of setup: mem.New plus the ISA's NewMachine
// (ELF load and predecode), exactly as the report layer builds a cell.
func load(c *cc.Compiled) (simeng.Machine, error) {
	m := mem.New(cc.TextBase, c.MemSize)
	if c.Target.Arch == isa.AArch64 {
		mach, err := a64.NewMachine(c.File, m)
		if err != nil {
			return nil, err
		}
		return mach, nil
	}
	mach, err := rv64.NewMachine(c.File, m)
	if err != nil {
		return nil, err
	}
	return mach, nil
}

// runSetup is the setup child: it times compile + load of every cell,
// c.setupPasses times after one untimed pass, with a probe and a GC
// before each pass.
func runSetup(w workload, c childConfig) (*setupResult, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	progs := programOrders(w, c.scale, c.seed)()
	res := &setupResult{}
	var probes []float64 // probes[k] runs just before pass k
	for pass := 0; pass <= c.setupPasses; pass++ {
		probes = append(probes, cal.probe())
		runtime.GC()
		start := time.Now()
		for _, p := range progs {
			for _, tgt := range cc.Targets() {
				c, err := cc.Compile(p, tgt)
				if err != nil {
					return nil, err
				}
				if _, err := load(c); err != nil {
					return nil, err
				}
			}
		}
		if pass > 0 {
			res.SetupS = append(res.SetupS, time.Since(start).Seconds())
		}
	}
	probes = append(probes, cal.probe())
	for k := 1; k <= c.setupPasses; k++ {
		res.ProbeS = append(res.ProbeS, (probes[k]+probes[k+1])/2)
	}
	return res, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// Peak RSS is taken per rep, from the kernel's high-water mark (VmHWM)
// after resetting it before the rep. The whole-process peak is set by
// whichever rep the garbage collector ran latest in, and it scattered
// by up to 20% between runs; the median of per-rep peaks does not.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runRep makes one RunSuite call the way the workload's CLI would,
// timing wall and process CPU and taking the peak RSS around it only.
// Workloads with durability get a fresh run directory under tmp (so
// every cell is computed and journaled, never served from cache) and a
// fresh metrics registry.
func runRep(w workload, progs []*ir.Program, tmp string) ([][]report.Row, *telemetry.SchedStats, repResult, error) {
	var rr repResult
	ex := w.ex
	var dir string
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(tmp, "durable-"); err != nil {
			return nil, nil, rr, err
		}
		defer os.RemoveAll(dir)
		ex.Metrics = telemetry.NewRegistry()
	}
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return nil, nil, rr, fmt.Errorf("reset peak RSS: %w", err)
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	if w.durable {
		run, err := durable.Open(dir, nil)
		if err != nil {
			return nil, nil, rr, err
		}
		ex.Durable = run
	}
	rows, st, err := report.RunSuite(progs, ex)
	if ex.Durable != nil {
		if cerr := ex.Durable.Close(); err == nil {
			err = cerr
		}
	}
	rr.WallS = time.Since(start).Seconds()
	rr.CPUS = cpuSeconds() - cpu0
	if err != nil {
		return nil, nil, rr, err
	}
	if rr.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return nil, nil, rr, fmt.Errorf("peak RSS: %w", err)
	}
	rr.Programs = programNames(progs)
	for _, rs := range rows {
		for i := range rs {
			rr.Events += rs[i].Core.Instructions
			rr.Cells++
		}
	}
	if ex.Durable != nil {
		// A cache serving rep 2+ would look like a huge speed-up.
		if got := ex.Durable.Stats().Computed; got != rr.Cells {
			return nil, nil, rr, fmt.Errorf("durable run computed %d of %d cells", got, rr.Cells)
		}
	}
	return rows, st, rr, nil
}

// checkedRep runs one rep and verifies its rows.
func checkedRep(w workload, scale workloads.Scale, progs []*ir.Program, ref *expected, tmp string, errs *[]string) ([][]report.Row, *telemetry.SchedStats, repResult, error) {
	rows, st, rr, err := runRep(w, progs, tmp)
	if err != nil {
		return nil, nil, rr, err
	}
	var problems []string
	rr.Digest, rr.Failed, problems = checkRows(w, scale, progs, rows, ref)
	*errs = append(*errs, problems...)
	return rows, st, rr, nil
}

// runE2E is the end-to-end child: one untimed warm-up rep (a process's
// first rep runs measurably slower), then timed reps, each followed by
// a calibration probe, until both minReps and the time budget are
// reached.
func runE2E(w workload, c childConfig) (*e2eResult, error) {
	ref, err := loadExpected()
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	order := programOrders(w, c.scale, c.seed)
	res := &e2eResult{}
	if _, _, res.Warmup, err = checkedRep(w, c.scale, order(), ref, c.tmp, &res.Errors); err != nil {
		return nil, err
	}
	start := time.Now()
	probe := cal.probe()
	for len(res.Reps) < c.minReps || time.Since(start).Seconds() < c.seconds {
		_, _, rr, err := checkedRep(w, c.scale, order(), ref, c.tmp, &res.Errors)
		if err != nil {
			return nil, err
		}
		before := probe
		probe = cal.probe()
		rr.ProbeS = (before + probe) / 2
		rr.PeakRSSMiB -= probeMiB
		res.Reps = append(res.Reps, rr)
	}
	return res, nil
}
