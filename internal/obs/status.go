package obs

import (
	"strings"
	"sync"
	"time"

	"isacmp/internal/isa"
	"isacmp/internal/telemetry"
)

// CellState is the lifecycle state of one matrix cell as shown on
// /statusz and streamed on /events.
type CellState string

const (
	CellPending  CellState = "pending"
	CellRunning  CellState = "running"
	CellRetrying CellState = "retrying"
	CellFailed   CellState = "failed"
	CellDone     CellState = "done"
)

// Event is one cell lifecycle transition, streamed on /events as a
// JSON SSE payload. Seq is a per-run monotonic sequence number so a
// client can detect drops (slow subscribers lose events rather than
// stalling the matrix).
type Event struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	RunID    string    `json:"run_id"`
	Workload string    `json:"workload"`
	Target   string    `json:"target"`
	State    CellState `json:"state"`
	Attempt  int       `json:"attempt,omitempty"`
	Retired  uint64    `json:"retired,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	// Source marks a cell served from the content cache without
	// simulation ("cache"). Empty for computed cells.
	Source string `json:"source,omitempty"`
}

// CellStatus is the /statusz view of one matrix cell.
type CellStatus struct {
	Workload string    `json:"workload"`
	Target   string    `json:"target"`
	State    CellState `json:"state"`
	Attempt  int       `json:"attempt,omitempty"`
	Retired  uint64    `json:"retired,omitempty"`
	Seconds  float64   `json:"seconds,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	// Source marks a cell served from the content cache ("cache").
	Source string `json:"source,omitempty"`
}

// StatusDoc is the JSON document /statusz serves: the whole matrix at
// a point in time plus derived scheduling signals (queue depths from
// the registry, throughput EWMA, ETA).
type StatusDoc struct {
	Schema        string         `json:"schema"`
	RunID         string         `json:"run_id"`
	Time          time.Time      `json:"time"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Workers       int            `json:"workers,omitempty"`
	States        map[string]int `json:"states"`
	// Served counts terminal cells by durability source (only
	// "cache") — the served-vs-computed split; computed cells are the
	// done/failed counts in States minus these.
	Served map[string]int `json:"served,omitempty"`
	// ServedPerSecond is the resume throughput: served cells per second
	// of uptime. It is reported separately from the EWMAs on purpose —
	// a served cell costs microseconds, so folding it into the
	// throughput estimator would make the ETA wildly optimistic for the
	// cells that still have to be computed.
	ServedPerSecond float64            `json:"served_per_second,omitempty"`
	Cells           []CellStatus       `json:"cells"`
	QueueDepths     map[string]float64 `json:"queue_depths,omitempty"`
	EWMACellSeconds float64            `json:"ewma_cell_seconds,omitempty"`
	EWMAMIPS        float64            `json:"ewma_mips,omitempty"`
	ETASeconds      float64            `json:"eta_seconds,omitempty"`
	// EventsSent / EventsDropped count /events SSE deliveries and the
	// broadcasts lost to slow subscribers (drop-not-stall contract).
	EventsSent    uint64 `json:"events_sent,omitempty"`
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// StageSeconds is the span profiler's per-stage time breakdown,
	// present only when the run was started with -profile. Filled by
	// the obs server, not the board.
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
}

// StatusSchema identifies the /statusz document format.
const StatusSchema = "isacmp/statusz/v1"

// ewmaAlpha is the smoothing factor for the cell-seconds and MIPS
// EWMAs: recent cells dominate, but one outlier cannot swing the ETA.
const ewmaAlpha = 0.3

type cell struct {
	workload string
	target   string
	state    CellState
	attempt  int
	retired  uint64
	seconds  float64
	reason   string
	source   string
}

// Board tracks live per-cell matrix state for /statusz and fans cell
// lifecycle transitions out to /events subscribers. All methods are
// safe on a nil receiver (no-ops), so the report runner drives it
// unconditionally whether or not -serve is set.
type Board struct {
	runID string
	reg   *telemetry.Registry

	mu       sync.Mutex
	started  time.Time
	workers  int
	cells    []*cell
	index    map[string]*cell
	seq      uint64
	subs     map[chan Event]struct{}
	ewmaSecs float64
	ewmaMIPS float64
	// SSE delivery accounting (under mu); mirrored to the registry
	// counters obs.events.sent / obs.events.dropped when reg is set.
	evSent    uint64
	evDropped uint64
}

// NewBoard returns a board for one run. reg may be nil; when set,
// /statusz folds the registry's sched.* queue-depth gauges into the
// document.
func NewBoard(runID string, reg *telemetry.Registry) *Board {
	return &Board{
		runID:   runID,
		reg:     reg,
		started: time.Now(),
		index:   map[string]*cell{},
		subs:    map[chan Event]struct{}{},
	}
}

// RunID returns the run identifier the board was built with ("" on a
// nil board).
func (b *Board) RunID() string {
	if b == nil {
		return ""
	}
	return b.runID
}

func cellKey(workload, target string) string { return workload + "\x00" + target }

// SetWorkers records the pool width used for the ETA estimate.
func (b *Board) SetWorkers(n int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.workers = n
	b.mu.Unlock()
}

// Register adds a cell in the pending state. Cells appear on /statusz
// in registration order — the same order the report tables use.
func (b *Board) Register(workload, target string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	k := cellKey(workload, target)
	if _, ok := b.index[k]; ok {
		b.mu.Unlock()
		return
	}
	c := &cell{workload: workload, target: target, state: CellPending}
	b.cells = append(b.cells, c)
	b.index[k] = c
	b.mu.Unlock()
}

// transition moves a cell to a new state and broadcasts the event.
// It creates the cell if Register was skipped, so partial wiring
// degrades to a board that only shows touched cells.
func (b *Board) transition(workload, target string, state CellState, attempt int, retired uint64, seconds float64, reason string) {
	b.mu.Lock()
	k := cellKey(workload, target)
	c, ok := b.index[k]
	if !ok {
		c = &cell{workload: workload, target: target}
		b.cells = append(b.cells, c)
		b.index[k] = c
	}
	c.state = state
	c.attempt = attempt
	if retired > 0 {
		c.retired = retired
	}
	if seconds > 0 {
		c.seconds = seconds
	}
	c.reason = reason
	if state == CellDone && seconds > 0 {
		if b.ewmaSecs == 0 {
			b.ewmaSecs = seconds
		} else {
			b.ewmaSecs = ewmaAlpha*seconds + (1-ewmaAlpha)*b.ewmaSecs
		}
		if retired > 0 {
			mips := float64(retired) / seconds / 1e6
			if b.ewmaMIPS == 0 {
				b.ewmaMIPS = mips
			} else {
				b.ewmaMIPS = ewmaAlpha*mips + (1-ewmaAlpha)*b.ewmaMIPS
			}
		}
	}
	b.seq++
	ev := Event{
		Seq:      b.seq,
		Time:     time.Now(),
		RunID:    b.runID,
		Workload: workload,
		Target:   target,
		State:    state,
		Attempt:  attempt,
		Retired:  c.retired,
		Reason:   reason,
		Source:   c.source,
	}
	var sent, dropped uint64
	for ch := range b.subs {
		select {
		case ch <- ev:
			sent++
		default: // slow subscriber: drop rather than stall the matrix
			dropped++
		}
	}
	b.evSent += sent
	b.evDropped += dropped
	reg := b.reg
	b.mu.Unlock()
	// Registry counters are updated outside the board lock; they are
	// obs.*-prefixed, so manifest canonicalization strips them and the
	// byte-identity contract holds whether or not anyone subscribes.
	if reg != nil {
		if sent > 0 {
			reg.Counter("obs.events.sent").Add(sent)
		}
		if dropped > 0 {
			reg.Counter("obs.events.dropped").Add(dropped)
		}
	}
}

// Running marks a cell as executing its attempt'th attempt.
func (b *Board) Running(workload, target string, attempt int) {
	if b == nil {
		return
	}
	b.transition(workload, target, CellRunning, attempt, 0, 0, "")
}

// Retrying marks a cell as backing off before another attempt.
func (b *Board) Retrying(workload, target string, attempt int, reason string) {
	if b == nil {
		return
	}
	b.transition(workload, target, CellRetrying, attempt, 0, 0, reason)
}

// Done marks a cell complete and feeds the throughput EWMAs.
func (b *Board) Done(workload, target string, seconds float64, retired uint64) {
	if b == nil {
		return
	}
	b.transition(workload, target, CellDone, 0, retired, seconds, "")
}

// Failed marks a cell permanently failed with its taxonomy reason.
func (b *Board) Failed(workload, target string, attempt int, reason string) {
	if b == nil {
		return
	}
	b.transition(workload, target, CellFailed, attempt, 0, 0, reason)
}

// Served marks a cell done without simulation: its result came from
// the content cache (source "cache"). Served cells do not feed the
// throughput EWMAs — their original wall time says nothing about this
// run's pace — so the ETA stays honest for the cells that remain.
func (b *Board) Served(workload, target string, retired uint64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	k := cellKey(workload, target)
	c, ok := b.index[k]
	if !ok {
		c = &cell{workload: workload, target: target}
		b.cells = append(b.cells, c)
		b.index[k] = c
	}
	c.source = "cache"
	b.mu.Unlock()
	b.transition(workload, target, CellDone, 0, retired, 0, "")
}

// Progress updates a running cell's retired-instruction count. A Meter
// calls it in large strides; it takes the lock but broadcasts nothing.
func (b *Board) Progress(workload, target string, retired uint64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if c, ok := b.index[cellKey(workload, target)]; ok {
		c.retired = retired
	}
	b.mu.Unlock()
}

// Subscribe registers an /events listener. The channel is buffered;
// events overflowing a stalled listener are dropped, never blocking
// cell transitions.
func (b *Board) Subscribe() chan Event {
	if b == nil {
		return nil
	}
	ch := make(chan Event, 256)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return ch
}

// Unsubscribe removes a listener registered with Subscribe.
func (b *Board) Unsubscribe(ch chan Event) {
	if b == nil || ch == nil {
		return
	}
	b.mu.Lock()
	delete(b.subs, ch)
	b.mu.Unlock()
}

// Status renders the /statusz document.
func (b *Board) Status() StatusDoc {
	if b == nil {
		return StatusDoc{Schema: StatusSchema, Time: time.Now(), States: map[string]int{}}
	}
	b.mu.Lock()
	doc := StatusDoc{
		Schema:          StatusSchema,
		RunID:           b.runID,
		Time:            time.Now(),
		UptimeSeconds:   time.Since(b.started).Seconds(),
		Workers:         b.workers,
		States:          map[string]int{},
		EWMACellSeconds: b.ewmaSecs,
		EWMAMIPS:        b.ewmaMIPS,
		EventsSent:      b.evSent,
		EventsDropped:   b.evDropped,
	}
	remaining := 0
	for _, c := range b.cells {
		doc.States[string(c.state)]++
		if c.source != "" {
			if doc.Served == nil {
				doc.Served = map[string]int{}
			}
			doc.Served[c.source]++
		}
		switch c.state {
		case CellPending, CellRunning, CellRetrying:
			remaining++
		}
		doc.Cells = append(doc.Cells, CellStatus{
			Workload: c.workload,
			Target:   c.target,
			State:    c.state,
			Attempt:  c.attempt,
			Retired:  c.retired,
			Seconds:  c.seconds,
			Reason:   c.reason,
			Source:   c.source,
		})
	}
	workers := b.workers
	if workers < 1 {
		workers = 1
	}
	if b.ewmaSecs > 0 && remaining > 0 {
		doc.ETASeconds = float64(remaining) * b.ewmaSecs / float64(workers)
	}
	if doc.UptimeSeconds > 0 {
		served := 0
		for _, n := range doc.Served {
			served += n
		}
		if served > 0 {
			doc.ServedPerSecond = float64(served) / doc.UptimeSeconds
		}
	}
	reg := b.reg
	b.mu.Unlock()
	if reg != nil {
		snap := reg.Snapshot()
		for _, g := range snap.Gauges {
			if strings.HasPrefix(g.Name, "sched.") && strings.HasSuffix(g.Name, ".depth") {
				if doc.QueueDepths == nil {
					doc.QueueDepths = map[string]float64{}
				}
				doc.QueueDepths[g.Name] = g.Value
			}
		}
	}
	return doc
}

// meterStride is how many retired events a Meter accumulates locally
// before taking the board lock. 1<<16 keeps the hot-path cost of live
// progress reporting to one mutex acquisition per ~65k instructions.
const meterStride = 1 << 16

// Meter is a sink that counts a cell's retired events so the board
// sees the count advance while the cell runs. The runner places it
// after the cell's consumers, so it counts only delivered events.
type Meter struct {
	board    *Board
	workload string
	target   string
	local    uint64 // events since last flush
	total    uint64
}

// NewMeter builds a meter feeding b for the given cell. A nil board
// returns nil so unserved runs pay nothing; callers only attach the
// meter when it is non-nil.
func NewMeter(b *Board, workload, target string) *Meter {
	if b == nil {
		return nil
	}
	return &Meter{board: b, workload: workload, target: target}
}

// Event counts one retired instruction.
func (m *Meter) Event(*isa.Event) { m.add(1) }

// Events counts a batch of retired instructions.
func (m *Meter) Events(evs []isa.Event) { m.add(uint64(len(evs))) }

func (m *Meter) add(n uint64) {
	m.local += n
	if m.local >= meterStride {
		m.flush()
	}
}

func (m *Meter) flush() {
	m.total += m.local
	m.local = 0
	m.board.Progress(m.workload, m.target, m.total)
}

// Flush pushes any buffered count to the board; the runner calls it
// once when the cell finishes so the final retired count is exact.
// Safe on a nil meter.
func (m *Meter) Flush() {
	if m == nil {
		return
	}
	if m.local > 0 {
		m.flush()
	}
}
