package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"isacmp/internal/isa"
	"isacmp/internal/simeng"
)

// PipelineSpan is one traced instruction: the cycles at which it was
// dispatched, began executing and completed, as reported by a core
// model.
type PipelineSpan struct {
	Seq      uint64    `json:"seq"`
	PC       uint64    `json:"pc"`
	Group    isa.Group `json:"-"`
	GroupStr string    `json:"group"`
	Dispatch uint64    `json:"dispatch"`
	Issue    uint64    `json:"issue"`
	Complete uint64    `json:"complete"`
}

// PipelineTrace is a sampled, bounded recorder of per-instruction
// pipeline timing. It implements simeng.PipelineObserver, for a timing
// model's Tracer field, and isa.Sink, for the emulation core's
// retirement stream. Every Sample-th instruction is recorded into a
// ring buffer of Cap spans; once the ring wraps, the oldest spans are
// overwritten (Dropped counts them), so tracing a billion-instruction
// run costs a fixed amount of memory.
type PipelineTrace struct {
	// Sample records every Sample-th instruction; 0 or 1 records all.
	Sample uint64
	// Lanes is the number of Chrome-trace rows spans are spread over
	// (purely presentational); 0 means 8.
	Lanes int

	ring    []PipelineSpan
	seq     uint64 // instructions observed
	kept    uint64 // spans written into the ring
	dropped uint64 // spans overwritten after the ring wrapped
}

var (
	_ simeng.PipelineObserver = (*PipelineTrace)(nil)
	_ isa.Sink                = (*PipelineTrace)(nil)
)

// NewPipelineTrace returns a tracer holding at most cap spans,
// recording every sample-th instruction.
func NewPipelineTrace(capacity int, sample uint64) *PipelineTrace {
	if capacity <= 0 {
		capacity = 4096
	}
	return &PipelineTrace{Sample: sample, ring: make([]PipelineSpan, 0, capacity)}
}

// ObserveRetire records one instruction's pipeline timing.
func (t *PipelineTrace) ObserveRetire(ev *isa.Event, dispatch, issue, complete uint64) {
	t.seq++
	if t.Sample > 1 && t.seq%t.Sample != 0 {
		return
	}
	span := PipelineSpan{
		Seq:      t.seq - 1,
		PC:       ev.PC,
		Group:    ev.Group,
		Dispatch: dispatch,
		Issue:    issue,
		Complete: complete,
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, span)
	} else {
		t.ring[t.kept%uint64(cap(t.ring))] = span
		t.dropped++
	}
	t.kept++
}

// Event records one instruction retired by the emulation core, which
// takes one cycle per instruction: the i-th retirement is dispatched
// and issued at cycle i and completes at cycle i+1.
func (t *PipelineTrace) Event(ev *isa.Event) {
	t.ObserveRetire(ev, t.seq, t.seq, t.seq+1)
}

// Events records a batch of emulation-core retirements.
func (t *PipelineTrace) Events(evs []isa.Event) {
	for i := range evs {
		t.Event(&evs[i])
	}
}

// Observed returns the number of instructions seen (sampled or not).
func (t *PipelineTrace) Observed() uint64 { return t.seq }

// Dropped returns how many recorded spans were overwritten after the
// ring buffer filled.
func (t *PipelineTrace) Dropped() uint64 { return t.dropped }

// Spans returns the retained spans in recording order (oldest first).
func (t *PipelineTrace) Spans() []PipelineSpan {
	n := uint64(len(t.ring))
	out := make([]PipelineSpan, 0, n)
	start := uint64(0)
	if t.kept > n {
		start = t.kept % n
	}
	for i := uint64(0); i < n; i++ {
		s := t.ring[(start+i)%n]
		s.GroupStr = s.Group.String()
		out = append(out, s)
	}
	return out
}

// ChromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing / Perfetto "JSON Array Format"): a complete ("X")
// duration event with microsecond timestamps. The pipeline tracer maps
// one simulated cycle to one microsecond; the span profiler maps real
// nanoseconds to microseconds.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTraceWriter streams a Chrome trace-event JSON document
// ({"traceEvents": [...]}), one Emit per event, without holding the
// event set in memory. Shared by the pipeline tracer and the span
// profiler (internal/prof). Call Close to write the array tail and
// flush.
type ChromeTraceWriter struct {
	bw    *bufio.Writer
	first bool
}

// NewChromeTraceWriter writes the document head and returns the
// streaming writer.
func NewChromeTraceWriter(w io.Writer) (*ChromeTraceWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return nil, err
	}
	return &ChromeTraceWriter{bw: bw, first: true}, nil
}

// Emit appends one event to the document.
func (cw *ChromeTraceWriter) Emit(e ChromeEvent) error {
	if !cw.first {
		if _, err := cw.bw.WriteString(",\n"); err != nil {
			return err
		}
	}
	cw.first = false
	return encodeCompact(cw.bw, e)
}

// Close writes the array tail and flushes. The writer is unusable
// afterwards.
func (cw *ChromeTraceWriter) Close() error {
	if _, err := cw.bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// WriteChromeTrace writes the retained spans as a Chrome trace-event
// JSON document ({"traceEvents": [...]}), loadable in chrome://tracing
// or ui.perfetto.dev. Each instruction contributes up to two duration
// events: "wait" (dispatch to issue, present only when the
// instruction stalled) and "exec" (issue to completion). Spans are
// spread over Lanes rows so overlapping instructions stay readable.
func (t *PipelineTrace) WriteChromeTrace(w io.Writer) error {
	lanes := t.Lanes
	if lanes <= 0 {
		lanes = 8
	}
	cw, err := NewChromeTraceWriter(w)
	if err != nil {
		return err
	}
	for _, s := range t.Spans() {
		tid := int(s.Seq) % lanes
		name := fmt.Sprintf("%#x %s", s.PC, s.Group)
		args := map[string]string{"seq": fmt.Sprint(s.Seq)}
		if s.Issue > s.Dispatch {
			if err := cw.Emit(ChromeEvent{
				Name: name, Cat: "wait", Ph: "X",
				Ts: s.Dispatch, Dur: s.Issue - s.Dispatch,
				Pid: 1, Tid: tid, Args: args,
			}); err != nil {
				return err
			}
		}
		dur := uint64(1)
		if s.Complete > s.Issue {
			dur = s.Complete - s.Issue
		}
		if err := cw.Emit(ChromeEvent{
			Name: name, Cat: "exec", Ph: "X",
			Ts: s.Issue, Dur: dur,
			Pid: 1, Tid: tid, Args: args,
		}); err != nil {
			return err
		}
	}
	return cw.Close()
}

// encodeCompact marshals v without a trailing newline.
func encodeCompact(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteJSONL writes the retained spans one JSON object per line — the
// streaming-friendly form for ad-hoc analysis (jq, pandas).
func (t *PipelineTrace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
