package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"isacmp/internal/durable"
	"isacmp/internal/isa"
	"isacmp/internal/obs/slogx"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
)

// PostmortemSchema identifies the flight-recorder dump format.
const PostmortemSchema = "isacmp/postmortem/v1"

// DefaultFlightEvents is the ring capacity used when -flight-events is
// not given: deep enough to see the lead-up to a crash, shallow enough
// that a dump stays a few hundred KB.
const DefaultFlightEvents = 256

// FlightEvent is one retired instruction in the recorder ring, the
// JSON-friendly projection of isa.Event.
type FlightEvent struct {
	Seq       uint64 `json:"seq"` // retirement index within the attempt
	PC        uint64 `json:"pc"`
	Word      uint32 `json:"word"`
	Group     string `json:"group"`
	LoadAddr  uint64 `json:"load_addr,omitempty"`
	LoadSize  uint8  `json:"load_size,omitempty"`
	StoreAddr uint64 `json:"store_addr,omitempty"`
	StoreSize uint8  `json:"store_size,omitempty"`
	Branch    bool   `json:"branch,omitempty"`
	Taken     bool   `json:"taken,omitempty"`
}

// CounterDelta is a registry counter's change over the attempt.
type CounterDelta struct {
	Name  string `json:"name"`
	Delta uint64 `json:"delta"`
}

// Postmortem is the crash-dump artifact written when a cell dies with
// a SimError: the cell identity, the classified failure, the last N
// retired events leading up to it, and what the telemetry counters did
// during the attempt.
type Postmortem struct {
	Schema     string         `json:"schema"`
	RunID      string         `json:"run_id,omitempty"`
	Workload   string         `json:"workload"`
	Target     string         `json:"target"`
	Attempt    int            `json:"attempt"`
	Time       time.Time      `json:"time"`
	Reason     string         `json:"reason"`
	Message    string         `json:"message"`
	PC         uint64         `json:"pc"`
	Retired    uint64         `json:"retired"`
	Loads      uint64         `json:"loads"`
	Stores     uint64         `json:"stores"`
	Branches   uint64         `json:"branches"`
	Taken      uint64         `json:"taken"`
	RingCap    int            `json:"ring_cap"`
	LastEvents []FlightEvent  `json:"last_events"`
	Counters   []CounterDelta `json:"counter_deltas,omitempty"`
}

// Recorder is a per-cell flight recorder: a bounded ring of the last N
// retired events plus running architectural tallies. It is a sink the
// runner places before the cell's consumers, so the ring holds the
// event a faulty consumer died on. It is written and dumped by the one
// goroutine that runs the attempt — never shared — so it needs no
// locking and adds only a few stores per event to the hot path.
type Recorder struct {
	ring     []FlightEvent
	next     int
	total    uint64
	loads    uint64
	stores   uint64
	branches uint64
	taken    uint64

	runID    string
	workload string
	target   string
	attempt  int
	reg      *telemetry.Registry
	start    telemetry.Snapshot
}

// NewRecorder builds a recorder for one attempt of one cell. n is the
// ring capacity (<=0 selects DefaultFlightEvents). reg may be nil;
// when set, Dump reports counter deltas against the snapshot taken
// here.
func NewRecorder(n int, runID, workload, target string, attempt int, reg *telemetry.Registry) *Recorder {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	r := &Recorder{
		ring:     make([]FlightEvent, 0, n),
		runID:    runID,
		workload: workload,
		target:   target,
		attempt:  attempt,
		reg:      reg,
	}
	if reg != nil {
		r.start = reg.Snapshot()
	}
	return r
}

// Event records one retired instruction.
func (r *Recorder) Event(ev *isa.Event) {
	fe := FlightEvent{
		Seq:       r.total,
		PC:        ev.PC,
		Word:      ev.Word,
		Group:     ev.Group.String(),
		LoadAddr:  ev.LoadAddr,
		LoadSize:  ev.LoadSize,
		StoreAddr: ev.StoreAddr,
		StoreSize: ev.StoreSize,
		Branch:    ev.Branch,
		Taken:     ev.Taken,
	}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, fe)
	} else {
		r.ring[r.next] = fe
	}
	r.next++
	if r.next == cap(r.ring) {
		r.next = 0
	}
	r.total++
	if ev.LoadSize > 0 {
		r.loads++
	}
	if ev.StoreSize > 0 {
		r.stores++
	}
	if ev.Branch {
		r.branches++
		if ev.Taken {
			r.taken++
		}
	}
}

// Events records a batch of retired instructions.
func (r *Recorder) Events(evs []isa.Event) {
	for i := range evs {
		r.Event(&evs[i])
	}
}

// lastEvents returns the ring contents oldest-first.
func (r *Recorder) lastEvents() []FlightEvent {
	if len(r.ring) < cap(r.ring) {
		return append([]FlightEvent(nil), r.ring...)
	}
	out := make([]FlightEvent, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// sanitizeFile maps a cell-identity string onto a safe filename
// component (targets contain '/', e.g. "rv64/gcc12/pathlen").
func sanitizeFile(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// PostmortemPath is the deterministic artifact path Dump writes for a
// given cell attempt, so callers that only know the cell identity can
// find (or predict) the dump without threading the path around.
func PostmortemPath(dir, workload, target string, attempt int) string {
	name := fmt.Sprintf("postmortem-%s-%s-a%d.json",
		sanitizeFile(workload), sanitizeFile(target), attempt)
	return filepath.Join(dir, name)
}

// Dump writes the post-mortem artifact for a failed attempt into dir
// and returns its path. It must be called from the goroutine that fed
// the recorder (the attempt goroutine itself), after simulation has
// stopped. Errors are logged, not fatal: a failed dump never turns a
// classified cell failure into a crash.
func (r *Recorder) Dump(dir string, se *simeng.SimError, log *slog.Logger) string {
	log = slogx.OrNop(log)
	pm := Postmortem{
		Schema:     PostmortemSchema,
		RunID:      r.runID,
		Workload:   r.workload,
		Target:     r.target,
		Attempt:    r.attempt,
		Time:       time.Now().UTC(),
		Reason:     simeng.Reason(se.Kind),
		Message:    se.Error(),
		PC:         se.PC,
		Retired:    r.total,
		Loads:      r.loads,
		Stores:     r.stores,
		Branches:   r.branches,
		Taken:      r.taken,
		RingCap:    cap(r.ring),
		LastEvents: r.lastEvents(),
	}
	if se.Retired > 0 {
		pm.Retired = se.Retired
	}
	if r.reg != nil {
		end := r.reg.Snapshot()
		for _, c := range end.Counters {
			if d := c.Value - r.start.Counter(c.Name); d > 0 {
				pm.Counters = append(pm.Counters, CounterDelta{Name: c.Name, Delta: d})
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Error("flight recorder: mkdir failed", "dir", dir, "err", err)
		return ""
	}
	path := PostmortemPath(dir, r.workload, r.target, r.attempt)
	data, err := json.MarshalIndent(pm, "", "  ")
	if err != nil {
		log.Error("flight recorder: marshal failed", "err", err)
		return ""
	}
	data = append(data, '\n')
	if err := durable.WriteFileAtomic(path, data, 0o644); err != nil {
		log.Error("flight recorder: write failed", "path", path, "err", err)
		return ""
	}
	log.Info("flight recorder: post-mortem written",
		"path", path, "reason", pm.Reason, "retired", pm.Retired)
	return path
}
