// Command bench is the repository's benchmark: four workloads run end
// to end through report.RunSuite (tracing off), or broken down layer by
// layer in a separate traced run. Run it from the repo root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-o DIR]
//	bash bench/run.sh compare BASE FRESH
//	bash bench/run.sh capture
//
// Each workload runs in fresh child processes of this binary, one at a
// time, while the parent waits. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"

	"isacmp/internal/benchdb"
	"isacmp/internal/durable"
	"isacmp/internal/ir"
	"isacmp/internal/report"
	"isacmp/internal/workloads"
)

const (
	// schema identifies the result documents this command writes.
	schema = "isacmp/bench/v1"
	// childEnv, when set, makes the binary (or the test binary) act as
	// a workload child instead of the parent.
	childEnv = "ISACMP_BENCH_CHILD"
	// defaultMinReps is the fewest timed reps a workload takes, however
	// long they run: a median needs three.
	defaultMinReps = 3
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// childConfig is what the parent passes a workload child.
type childConfig struct {
	scale       workloads.Scale
	seed        int64
	seconds     float64
	minReps     int
	setupPasses int
	tmp         string
	tracePath   string
}

func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "e2e", "setup, e2e or trace")
	name := fs.String("workload", "", "workload name")
	scale := fs.String("scale", "small", "workload scale")
	var c childConfig
	fs.Int64Var(&c.seed, "seed", 1, "program-order seed")
	fs.Float64Var(&c.seconds, "seconds", 0, "minimum timed phase")
	fs.IntVar(&c.minReps, "reps", 1, "minimum timed reps")
	fs.IntVar(&c.setupPasses, "setup-passes", setupPasses, "timed setup passes")
	fs.StringVar(&c.tmp, "tmp", "", "scratch directory")
	fs.StringVar(&c.tracePath, "trace-out", "", "Chrome trace path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	var err error
	if c.scale, err = report.ParseScale(*scale); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var res any
	switch *mode {
	case "setup":
		res, err = runSetup(w, c)
	case "trace":
		res, err = runTrace(w, c)
	default:
		res, err = runE2E(w, c)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// config is one parent invocation.
type config struct {
	seed        int64
	seconds     float64
	trace       bool
	out         string
	scale       workloads.Scale
	minReps     int
	setupPasses int
}

func (c config) mode() string {
	if c.trace {
		return "trace"
	}
	return "e2e"
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "capture":
			return captureMain(stderr)
		}
	}
	// A runner that reads BENCHMARK.json calls `<command> --workload
	// <name> --seed <n> --seconds <run_seconds> --trace <0|1>` and reads
	// the last line of standard output: -workload and -seconds are that
	// interface.
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four)")
	c := config{scale: workloads.Small, minReps: defaultMinReps, setupPasses: setupPasses}
	fs.Int64Var(&c.seed, "seed", 1, "permutes the program and workload order; results must not depend on it")
	fs.Float64Var(&c.seconds, "seconds", 20, "minimum length of each workload's timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	fs.StringVar(&c.out, "o", filepath.Join("bench", "out"), "directory for result documents and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-o DIR] | compare BASE FRESH | capture")
		return 2
	}
	c.trace = *trace == 1
	ws := append([]workload(nil), benchWorkloads...)
	rand.New(rand.NewSource(c.seed)).Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	doc, path, err := c.run(ws, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printDoc(stdout, doc)
	fmt.Fprintf(stdout, "result document: %s\n", path)
	line := resultLine(doc)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

// resultDoc is the document one invocation writes to -o.
type resultDoc struct {
	Schema     string        `json:"schema"`
	Mode       string        `json:"mode"`
	Provenance provenance    `json:"provenance"`
	Workloads  []workloadDoc `json:"workloads"`
}

type provenance struct {
	// Host carries nproc (num_cpu), GOMAXPROCS and the Go version.
	Host        *benchdb.Fingerprint `json:"host"`
	Noise       *benchdb.Probe       `json:"noise"`
	Revision    string               `json:"vcs_revision,omitempty"`
	Modified    bool                 `json:"vcs_modified,omitempty"`
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	MinReps     int                  `json:"min_reps"`
	SetupPasses int                  `json:"setup_passes"`
	Scale       string               `json:"scale"`
	Start       string               `json:"start"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Programs is the traced run's program order; end-to-end reps
	// record their own.
	Programs  []string               `json:"programs,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Reps      []repResult            `json:"reps,omitempty"`
	Setup     *setupResult           `json:"setup,omitempty"`
	SelfTimes []selfTime             `json:"self_times,omitempty"`
	Trace     string                 `json:"trace,omitempty"`
}

type metricValue struct {
	summary
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
	// OffPath marks a per-layer value of a layer the workload's config
	// bypasses, measured on the side (see trace.go).
	OffPath bool `json:"off_path,omitempty"`
}

func collectProvenance(c config) provenance {
	p := provenance{
		Host: benchdb.Collect(), Noise: benchdb.RunProbe(0),
		Seed: c.seed, Seconds: c.seconds, MinReps: c.minReps, SetupPasses: c.setupPasses,
		Scale: c.scale.String(), Start: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// run measures the workloads one child process at a time and writes
// the result document.
func (c config) run(ws []workload, log io.Writer) (*resultDoc, string, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, "", err
	}
	tmp, err := os.MkdirTemp(c.out, "tmp-")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(tmp)
	doc := &resultDoc{Schema: schema, Mode: c.mode(), Provenance: collectProvenance(c)}
	for _, w := range ws {
		wd, err := c.runWorkload(w, tmp, log)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Workloads = append(doc.Workloads, *wd)
	}
	label := "all"
	if len(ws) == 1 {
		label = ws[0].name
	}
	path := filepath.Join(c.out, fmt.Sprintf("%s-%s-seed%d.json", c.mode(), label, c.seed))
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, "", err
	}
	return doc, path, durable.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

func (c config) runWorkload(w workload, tmp string, log io.Writer) (*workloadDoc, error) {
	child := func(mode string, res any, extra ...string) error {
		args := append([]string{
			"-mode", mode, "-workload", w.name, "-scale", c.scale.String(),
			"-seed", strconv.FormatInt(c.seed, 10), "-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
			"-reps", strconv.Itoa(c.minReps), "-setup-passes", strconv.Itoa(c.setupPasses), "-tmp", tmp,
		}, extra...)
		return spawnChild(args, res, log)
	}
	wd := &workloadDoc{Name: w.name, Why: w.why, Metrics: map[string]metricValue{}}
	if c.trace {
		var tr traceResult
		path := filepath.Join(c.out, fmt.Sprintf("trace-%s-seed%d.trace.json", w.name, c.seed))
		if err := child("trace", &tr, "-trace-out", path); err != nil {
			return nil, err
		}
		return wd, wd.fromTrace(w, &tr)
	}
	var sr setupResult
	if err := child("setup", &sr); err != nil {
		return nil, err
	}
	var er e2eResult
	if err := child("e2e", &er); err != nil {
		return nil, err
	}
	wd.fromE2E(&er, &sr)
	return wd, nil
}

// spawnChild runs this executable as a workload child, waits for it and
// decodes its standard output into res.
func spawnChild(args []string, res any, log io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("workload child: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return fmt.Errorf("workload child result: %w", err)
	}
	return nil
}

// fromE2E derives the end-to-end metrics. Times are scaled to the
// reference host speed (calibrate.go); the unscaled ones stay in Reps
// and Setup.
func (wd *workloadDoc) fromE2E(er *e2eResult, sr *setupResult) {
	wd.Errors, wd.Reps, wd.Setup = er.Errors, er.Reps, sr
	wd.Attempted, wd.Failed = er.Warmup.Cells, er.Warmup.Failed
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for _, r := range er.Reps {
		wd.Attempted += r.Cells
		wd.Failed += r.Failed
		add("events_per_s", float64(r.Events)/(r.WallS*hostScale(r.ProbeS)))
		add("cpu_ns_per_event", r.CPUS*1e9*hostScale(r.ProbeS)/float64(r.Events))
		add("peak_rss_mib", r.PeakRSSMiB)
	}
	for i, s := range sr.SetupS {
		add("setup_s", s*hostScale(sr.ProbeS[i]))
	}
	add("fail_ratio", float64(wd.Failed)/float64(max(wd.Attempted, 1)))
	for _, m := range e2eMetrics {
		bound := m.bound
		wd.Metrics[m.name] = metricValue{summary: summarize(samples[m.name]), Unit: m.unit, Better: m.better, Bound: &bound}
	}
	wd.Correct = wd.Failed == 0 && len(wd.Errors) == 0
}

func (wd *workloadDoc) fromTrace(w workload, tr *traceResult) error {
	wd.Programs, wd.Errors, wd.SelfTimes, wd.Trace = tr.Programs, tr.Errors, tr.SelfTimes, tr.Trace
	wd.Attempted, wd.Failed = tr.Cells, tr.Failed
	on := w.inConfig()
	for _, m := range layerMetrics {
		v, ok := tr.Metrics[m.name]
		if !ok {
			return fmt.Errorf("traced run reported no %s", m.name)
		}
		used, decided := on[m.layer]
		wd.Metrics[m.name] = metricValue{summary: summarize([]float64{v}), Unit: m.unit, Better: m.better, OffPath: decided && !used}
	}
	wd.Correct = wd.Failed == 0 && len(wd.Errors) == 0
	return nil
}

// line is the result line: the last line of standard output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defs lists the metrics a document of this mode reports.
func (doc *resultDoc) defs() []metricDef {
	if doc.Mode == "trace" {
		return layerMetrics
	}
	return e2eMetrics
}

// resultLine reports the metrics BENCHMARK.json lists. With several
// workloads each metric is keyed "<workload>/<metric>".
func resultLine(doc *resultDoc) line {
	l := line{Correct: true, Metrics: map[string]lineMetric{}}
	for _, wd := range doc.Workloads {
		l.Correct = l.Correct && wd.Correct
		l.Attempted += wd.Attempted
		l.Failed += wd.Failed
		for _, m := range doc.defs() {
			if !m.contract {
				continue
			}
			key := m.name
			if len(doc.Workloads) > 1 {
				key = wd.Name + "/" + m.name
			}
			l.Metrics[key] = lineMetric{Value: wd.Metrics[m.name].Value, Unit: m.unit}
		}
	}
	return l
}

func printDoc(w io.Writer, doc *resultDoc) {
	for _, wd := range doc.Workloads {
		status := "correct"
		if !wd.Correct {
			status = fmt.Sprintf("INCORRECT: %d of %d cells failed", wd.Failed, wd.Attempted)
		}
		fmt.Fprintf(w, "== %s (%s, %s)\n", wd.Name, doc.Mode, status)
		for _, e := range wd.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		for _, m := range doc.defs() {
			v := wd.Metrics[m.name]
			note := ""
			switch {
			case v.OffPath:
				note = "  (off path)"
			case doc.Mode == "e2e":
				note = fmt.Sprintf("  q1 %.6g  q3 %.6g  n %d", v.Q1, v.Q3, v.N)
			}
			fmt.Fprintf(w, "  %-36s %14.6g %-9s%s\n", m.name, v.Value, m.unit, note)
		}
		if len(wd.SelfTimes) > 0 {
			var total float64
			for _, s := range wd.SelfTimes {
				total += s.SelfMs
			}
			fmt.Fprintf(w, "  self time by layer (%s):\n", wd.Trace)
			for _, s := range wd.SelfTimes {
				fmt.Fprintf(w, "    %-30s %10.1f ms %5.1f%%\n", s.Layer, s.SelfMs, 100*s.SelfMs/total)
			}
		}
	}
}

// captureMain records bench/expected.json from the current tree: one
// RunSuite rep per workload, with the cross-workload invariants
// checked against the captured reference before anything is written.
func captureMain(stderr io.Writer) int {
	if err := capture(filepath.Join("bench", "expected.json")); err != nil {
		fmt.Fprintf(stderr, "bench capture: %v\n", err)
		return 1
	}
	return 0
}

func capture(path string) error {
	const scale = workloads.Small
	tmp, err := os.MkdirTemp(filepath.Dir(path), "capture-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	ref := &expected{Scale: scale.String(), Digests: map[string]string{}, Cells: map[string]cellRef{}}
	type run struct {
		w     workload
		progs []*ir.Program
		rows  [][]report.Row
	}
	var runs []run
	for _, w := range benchWorkloads {
		progs := w.progs(scale)
		rows, _, _, err := runRep(w, progs, tmp)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		ref.Digests[w.name] = digest(progs, rows)
		if w.name == "paper-matrix" {
			byPaperOrder(progs, rows, func(prog string, r *report.Row) {
				ref.Cells[cellID(prog, r)] = cellRef{PathLen: r.PathLen, Regions: regionMap(r)}
			})
		}
		runs = append(runs, run{w, progs, rows})
	}
	for _, r := range runs {
		if _, _, errs := checkRows(r.w, scale, r.progs, r.rows, ref); len(errs) > 0 {
			return fmt.Errorf("%s: %v", r.w.name, errs)
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
