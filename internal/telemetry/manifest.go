package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"isacmp/internal/durable"
	"isacmp/internal/simeng"
)

// ManifestSchema identifies the manifest document layout; bump on
// incompatible change. Trajectory tooling (BENCH_*.json diffing)
// matches on it. v2 added the optional `obs` block and per-failure
// `postmortem` paths; v1 documents remain readable (ReadManifest).
const ManifestSchema = "isacmp/run-manifest/v2"

// ManifestSchemaV1 is the previous layout, a strict subset of v2:
// every v1 document parses as a v2 manifest with no obs block and no
// postmortem paths.
const ManifestSchemaV1 = "isacmp/run-manifest/v1"

// Manifest is the machine-readable record of one CLI invocation: what
// ran, how long it took, what the simulator observed about the
// workloads, and what the telemetry observed about the simulator.
// Every cmd/ binary can emit one via -json / -metrics-json.
type Manifest struct {
	Schema    string `json:"schema"`
	Command   string `json:"command"`
	Scale     string `json:"scale,omitempty"`
	StartTime string `json:"start_time"`
	// WallSeconds is the end-to-end wall time of the invocation.
	WallSeconds float64 `json:"wall_seconds"`

	Host Host `json:"host"`

	// Runs holds one record per (workload, target, core) execution.
	Runs []RunRecord `json:"runs,omitempty"`

	// Failures records matrix cells that did not produce a result:
	// the typed reason, where the simulation was when it died, and the
	// full attempt history. A fault-free run omits the block entirely,
	// which keeps canonicalized manifests byte-identical to pre-
	// resilience output.
	Failures []FailureRecord `json:"failures,omitempty"`

	// Sched summarises the parallel analysis engine's worker pool when
	// one drove the invocation.
	Sched *SchedStats `json:"sched,omitempty"`

	// Obs records the live-observability configuration of the run:
	// serve address, log level/format, flight-recorder settings.
	// Omitted when no observability feature was enabled (and always
	// stripped by Canonicalize — it varies with deployment, not with
	// the computation). Schema v2.
	Obs *ObsConfig `json:"obs,omitempty"`

	// Durable summarises the crash-safety layer when one was armed:
	// where the content cache lives and how many cells were served
	// from it versus computed. Stripped by Canonicalize — it records
	// provenance, not computation, and a rerun must canonicalize
	// byte-identical to an uninterrupted run. Schema v2.
	Durable *durable.Stats `json:"durable,omitempty"`

	// Metrics is the final registry snapshot for the invocation.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// ObsConfig is the manifest `obs` block: how the run was being
// observed while it executed.
type ObsConfig struct {
	// ServeAddr is the bound observability server address ("" when
	// -serve was not given).
	ServeAddr string `json:"serve_addr,omitempty"`
	// RunID tags every log line, status document and post-mortem of
	// the invocation.
	RunID string `json:"run_id,omitempty"`
	// LogLevel and LogFormat echo the -log-level / -log-format flags.
	LogLevel  string `json:"log_level,omitempty"`
	LogFormat string `json:"log_format,omitempty"`
	// FlightRecorder describes the per-cell crash ring when one was
	// armed.
	FlightRecorder *FlightRecorderConfig `json:"flight_recorder,omitempty"`
}

// FlightRecorderConfig describes the flight-recorder arming of a run.
type FlightRecorderConfig struct {
	// Events is the ring capacity (last N retired events kept).
	Events int `json:"events"`
	// Dir is where post-mortem artifacts are written.
	Dir string `json:"dir"`
}

// SchedStats is the manifest block describing the worker pool of a
// parallel run: how many workers ran how many (workload, target)
// cells, and how busy each worker was. Mirrors sched.Pool without
// importing it (telemetry sits below the scheduler).
type SchedStats struct {
	// Workers is the pool size (the -parallel value).
	Workers int `json:"workers"`
	// Cells is the number of matrix cells executed.
	Cells int `json:"cells"`
	// WallSeconds is the pool lifetime; BusySeconds the summed busy
	// time across workers (BusySeconds/WallSeconds/Workers is overall
	// utilization).
	WallSeconds float64 `json:"wall_seconds"`
	BusySeconds float64 `json:"busy_seconds"`
	// BlockedSeconds is the summed time workers spent waiting on the
	// task queue (queue starvation) across the pool lifetime.
	BlockedSeconds float64 `json:"blocked_seconds,omitempty"`
	// WorkerUtilization is each worker's busy fraction of the pool
	// lifetime; WorkerCells the number of cells each worker ran;
	// WorkerBlocked each worker's queue-wait fraction.
	WorkerUtilization []float64 `json:"worker_utilization"`
	WorkerCells       []int64   `json:"worker_cells"`
	WorkerBlocked     []float64 `json:"worker_blocked,omitempty"`
}

// FailureRecord is one failed matrix cell in the manifest `failures`
// block: which cell, why (the engine's typed reason), where the
// simulation was, and every attempt that was made.
type FailureRecord struct {
	Workload string `json:"workload"`
	Target   string `json:"target"`
	// Reason is the taxonomy tag: "decode", "mem-fault", "budget",
	// "deadline", "panic", "setup" or "unknown".
	Reason string `json:"reason"`
	// Message is the final attempt's error text.
	Message string `json:"message"`
	// PC and Retired locate the failure inside the simulation (zero
	// for failures before simulation started).
	PC      uint64 `json:"pc,omitempty"`
	Retired uint64 `json:"retired,omitempty"`
	// Attempts is the total number of attempts made (1 = no retry).
	Attempts int `json:"attempts"`
	// History records each attempt's typed reason and message, in
	// order.
	History []AttemptRecord `json:"history,omitempty"`
	// Postmortem is the path of the flight-recorder crash dump for the
	// final attempt, when a recorder was armed. Schema v2.
	Postmortem string `json:"postmortem,omitempty"`
}

// AttemptRecord is one entry of a failure's attempt history.
type AttemptRecord struct {
	Attempt int    `json:"attempt"`
	Reason  string `json:"reason"`
	Message string `json:"message"`
}

// Host describes the machine and toolchain that produced the manifest.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS records the scheduler width the run executed under —
	// the provenance field that lets trajectory tooling tell a real
	// multicore measurement from a single-CPU one.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// RunRecord is one simulated execution inside a manifest.
type RunRecord struct {
	Workload string `json:"workload"`
	Target   string `json:"target"`

	// Core carries the uniform per-core stats (shared Instructions/
	// Cycles base plus model-specific counters).
	Core simeng.PipelineStats `json:"core"`

	// WallSeconds is the wall time of this run alone; MIPS the
	// simulated retire rate in millions of instructions per second.
	WallSeconds float64 `json:"wall_seconds"`
	MIPS        float64 `json:"mips"`

	// Retries is how many extra attempts the cell needed beyond the
	// first (omitted for first-try successes, which keeps fault-free
	// manifests byte-identical).
	Retries int `json:"retries,omitempty"`

	// Sinks holds each analysis's events and its time inside every
	// call, from the tee or the fan-out consumer that delivered them.
	Sinks []SinkStats `json:"sinks,omitempty"`

	// Tracker describes the critical-path tracker's memory footprint,
	// when the run carried one.
	Tracker *TrackerStats `json:"tracker,omitempty"`

	// Fusion records what the macro-op fusion pass did, when one was
	// interposed (absent on fusion-off runs, which keeps fusion-off
	// manifests byte-identical to pre-fusion ones). The counters are
	// deterministic, so Canonicalize keeps them.
	Fusion *FusionStats `json:"fusion,omitempty"`

	// Counters is the run's transactional metrics delta keyed by
	// registry name (run.*, predecode.*, fusion.*), cached with the
	// record so a cache-served run re-applies exactly the delta the
	// original computation produced. Deterministic, so
	// Canonicalize keeps it. Absent when no registry was attached.
	Counters map[string]uint64 `json:"counters,omitempty"`

	// Results holds the analysis outputs for this run.
	Results *ResultTable `json:"results,omitempty"`
}

// FusionStats is the manifest fusion block: the pass configuration in
// -fusion spec syntax, the raw and rewritten event counts (EventsOut
// is the fused machine's effective path length) and per-rule hit
// counters. Enabled rules appear even with zero hits, so a rule that
// silently stopped firing is visible in a manifest diff.
type FusionStats struct {
	Spec      string           `json:"spec"`
	EventsIn  uint64           `json:"events_in"`
	EventsOut uint64           `json:"events_out"`
	Rules     []FusionRuleJSON `json:"rules,omitempty"`
}

// FusionRuleJSON is one per-rule hit counter.
type FusionRuleJSON struct {
	Rule string `json:"rule"`
	Hits uint64 `json:"hits"`
}

// TrackerStats mirrors core.CritPath's footprint counters without
// importing internal/core (telemetry sits below the analyses).
type TrackerStats struct {
	// MapEntries is the number of sparse memory-chain map entries.
	MapEntries int `json:"map_entries"`
	// DenseWords is the size of the dense memory-chain array.
	DenseWords int `json:"dense_words"`
}

// ResultTable carries the paper-analysis outputs of one run in the
// shape the text reports print: one value set per analysis, all
// optional.
type ResultTable struct {
	PathLen uint64       `json:"path_len,omitempty"`
	Regions []RegionJSON `json:"regions,omitempty"`
	Other   uint64       `json:"other_instructions,omitempty"`

	CP        uint64  `json:"cp,omitempty"`
	ILP       float64 `json:"ilp,omitempty"`
	RuntimeMS float64 `json:"runtime_ms,omitempty"`

	ScaledCP        uint64  `json:"scaled_cp,omitempty"`
	ScaledILP       float64 `json:"scaled_ilp,omitempty"`
	ScaledRuntimeMS float64 `json:"scaled_runtime_ms,omitempty"`

	Windows []WindowJSON `json:"windows,omitempty"`

	Mix           []MixJSON `json:"mix,omitempty"`
	BranchDensity float64   `json:"branch_density,omitempty"`
	BranchTaken   float64   `json:"branch_taken_rate,omitempty"`
}

// RegionJSON is one per-kernel path-length row.
type RegionJSON struct {
	Kernel string `json:"kernel"`
	Count  uint64 `json:"count"`
}

// WindowJSON is one windowed-critical-path series point.
type WindowJSON struct {
	Size    int     `json:"size"`
	Windows uint64  `json:"windows"`
	MeanCP  float64 `json:"mean_cp"`
	MeanILP float64 `json:"mean_ilp"`
}

// MixJSON is one instruction-mix histogram row.
type MixJSON struct {
	Group    string  `json:"group"`
	Count    uint64  `json:"count"`
	Fraction float64 `json:"fraction"`
}

// NewManifest starts a manifest for the named command, stamping the
// host block and start time. Call Finish before writing.
func NewManifest(command, scale string) *Manifest {
	return &Manifest{
		Schema:    ManifestSchema,
		Command:   command,
		Scale:     scale,
		StartTime: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
}

// Finish stamps the total wall time from the given start and attaches
// the registry snapshot (nil registry is fine).
func (m *Manifest) Finish(start time.Time, reg *Registry) {
	m.WallSeconds = time.Since(start).Seconds()
	if reg != nil {
		snap := reg.Snapshot()
		m.Metrics = &snap
	}
}

// Canonicalize zeroes every field of the manifest that legitimately
// varies between runs of the same logical configuration: wall-clock
// timings, retire rates, per-sink times, host/toolchain
// information, the scheduler block and all sched.* metrics. What
// remains — analysis results, instruction counts, deterministic
// tracker footprints, run metric counters — is the determinism
// contract behind the -parallel flag: a canonicalized parallel
// manifest is byte-identical to a canonicalized sequential one, and
// golden-manifest tests compare this form.
func (m *Manifest) Canonicalize() {
	m.StartTime = ""
	m.WallSeconds = 0
	m.Host = Host{}
	m.Sched = nil
	m.Obs = nil
	m.Durable = nil
	for i := range m.Runs {
		r := &m.Runs[i]
		r.WallSeconds = 0
		r.MIPS = 0
		for j := range r.Sinks {
			s := &r.Sinks[j]
			s.SampledEvents = 0
			s.SampledNs = 0
			s.EstOverheadNs = 0
			s.MeanNsPerEvent = 0
		}
	}
	if m.Metrics != nil {
		m.Metrics.stripPrefix("sched.")
		m.Metrics.stripPrefix("obs.")
	}
	for i := range m.Failures {
		m.Failures[i].Postmortem = ""
	}
}

// stripPrefix removes every metric whose name begins with prefix.
func (s *Snapshot) stripPrefix(prefix string) {
	keepC := s.Counters[:0]
	for _, c := range s.Counters {
		if !strings.HasPrefix(c.Name, prefix) {
			keepC = append(keepC, c)
		}
	}
	s.Counters = keepC
	keepG := s.Gauges[:0]
	for _, g := range s.Gauges {
		if !strings.HasPrefix(g.Name, prefix) {
			keepG = append(keepG, g)
		}
	}
	s.Gauges = keepG
	keepH := s.Histograms[:0]
	for _, h := range s.Histograms {
		if !strings.HasPrefix(h.Name, prefix) {
			keepH = append(keepH, h)
		}
	}
	s.Histograms = keepH
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}

// WriteFile writes the manifest to path ("-" means stdout). File
// writes are atomic (tmp + fsync + rename): an interrupted invocation
// leaves either the previous manifest or the new one, never a torn
// JSON document.
func (m *Manifest) WriteFile(path string) error {
	if path == "-" {
		return m.Encode(os.Stdout)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return err
	}
	return durable.WriteFileAtomic(path, buf.Bytes(), 0o644)
}

// ReadManifest parses a manifest document, accepting the current
// schema and v1 (whose layout is a strict subset: no obs block, no
// postmortem paths). Any other schema is an error — the caller should
// not silently misread a future layout.
func ReadManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	switch m.Schema {
	case ManifestSchema, ManifestSchemaV1:
		return &m, nil
	}
	return nil, fmt.Errorf("telemetry: unsupported manifest schema %q (want %q or %q)",
		m.Schema, ManifestSchema, ManifestSchemaV1)
}

// ReadManifestFile reads and parses a manifest from path.
func ReadManifestFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadManifest(data)
}

// RateMIPS converts an instruction count and duration to millions of
// simulated instructions per second.
func RateMIPS(instructions uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(instructions) / d.Seconds() / 1e6
}
