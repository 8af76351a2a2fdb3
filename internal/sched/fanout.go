package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"isacmp/internal/isa"
	"isacmp/internal/simeng"
)

// fanoutBatch is the number of events buffered before a batch is
// broadcast to the consumers. Large enough that channel operations are
// amortised to well under a nanosecond per event, small enough that
// in-flight batches stay in cache.
const fanoutBatch = 8192

// fanoutDepth is the per-consumer channel depth in batches; the
// slowest consumer applies backpressure to the generator once it falls
// this far behind. Batches are shared by every consumer and recycled,
// so a fan-out holds at most depth+2 batches whatever the number of
// consumers: depth queued for the slowest consumer, the one it is
// working on, and the one the generator is filling.
const fanoutDepth = 4

// FanoutStats is the span profiler's view of one fan-out run, filled
// by FanoutTimed: how long the generator spent handing batches to the
// consumer channels (back-pressure included) and how long each sink's
// goroutine spent processing events. Valid once FanoutTimed returns.
type FanoutStats struct {
	// DeliverNs is the generator-side broadcast time.
	DeliverNs int64
	// SinkBusyNs[i] is live-sink i's processing time (indexed in the
	// order the non-nil sinks were passed).
	SinkBusyNs []int64
}

// FanoutTimed runs gen once and replays its event stream into every
// sink concurrently: the trace is generated (simulated) a single time
// and each consumer observes the complete stream in retirement order
// on its own goroutine. It returns the number of events broadcast and
// gen's error, and fills fs with the generator's delivery time and
// each consumer's busy time. Timing reads one clock pair per batch
// (fanoutBatch events), so the overhead is fractions of a nanosecond
// per event.
//
// Each consumer takes every batch in one Events call. Batches are
// shared read-only between consumers — sinks must treat the events
// they receive as immutable, which the isa.Sink contract already
// demands. Once every consumer has returned from a batch it is
// refilled with later events, which the same contract (a batch is
// invalid once the call returns) allows; memory is bounded at
// fanoutDepth+2 batches. Every sink runs on a goroutine of its own,
// however many there are; a caller with one consumer can instead run
// it behind telemetry.Tee on the generating goroutine, timed the same
// way.
//
// A consumer that panics is isolated: the panic is converted into an
// ErrPanic-kind simeng error, the dead consumer keeps draining its
// channel (discarding batches) so the generator and the healthy
// consumers are never blocked behind it, and the first consumer error
// is returned once gen's own error (which takes precedence) is nil.
func FanoutTimed(gen func(isa.Sink) error, fs *FanoutStats, sinks ...isa.Sink) (uint64, error) {
	live := sinks[:0:0]
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	fs.SinkBusyNs = make([]int64, len(live))
	b := &broadcastSink{
		chans: make([]chan *sharedBatch, len(live)),
		// Sized to every batch that can exist, so a release never
		// finds it full.
		free: make(chan *sharedBatch, fanoutDepth+2),
	}
	consumerErrs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, s := range live {
		b.chans[i] = make(chan *sharedBatch, fanoutDepth)
		wg.Add(1)
		go func(ch chan *sharedBatch, s isa.Sink, errSlot *error, busySlot *int64) {
			defer wg.Done()
			// Busy time accumulates in a local and is stored once at
			// exit; the caller reads it after wg.Wait, so no atomics.
			var busy int64
			defer func() { *busySlot = busy }()
			for sb := range ch {
				// A dead consumer only drains, but still releases.
				if *errSlot == nil {
					t0 := time.Now()
					*errSlot = simeng.Guard(func() error {
						s.Events(sb.evs)
						return nil
					})
					busy += time.Since(t0).Nanoseconds()
				}
				b.release(sb)
			}
		}(b.chans[i], s, &consumerErrs[i], &fs.SinkBusyNs[i])
	}

	err := gen(b)
	b.flush()
	for _, ch := range b.chans {
		close(ch)
	}
	wg.Wait()
	fs.DeliverNs = b.deliverNs
	if err == nil {
		for _, cerr := range consumerErrs {
			if cerr != nil {
				err = cerr
				break
			}
		}
	}
	return b.n, err
}

// sharedBatch is one broadcast batch. refs counts the consumers that
// have not yet finished with it.
type sharedBatch struct {
	evs  []isa.Event
	refs atomic.Int32
}

// broadcastSink buffers events into batches and sends each full batch
// to every consumer channel. The core reuses its batch buffer, so the
// append copies the events; consumers receive the shared batch and
// must not mutate it. The last consumer to release a batch puts it on
// free, where the generator takes it before allocating a new one.
type broadcastSink struct {
	chans []chan *sharedBatch
	free  chan *sharedBatch
	cur   *sharedBatch // the batch being filled; nil before the first event
	n     uint64
	// deliverNs is the generator-side broadcast time, including
	// back-pressure stalls.
	deliverNs int64
}

func (b *broadcastSink) Event(ev *isa.Event) { b.Events(isa.One(ev)) }

// Events copies a batch from the core into the broadcast buffer, one
// memmove per batch it fills.
func (b *broadcastSink) Events(evs []isa.Event) {
	for len(evs) > 0 {
		if b.cur == nil {
			b.cur = b.get()
		}
		take := min(fanoutBatch-len(b.cur.evs), len(evs))
		b.cur.evs = append(b.cur.evs, evs[:take]...)
		b.n += uint64(take)
		evs = evs[take:]
		if len(b.cur.evs) == fanoutBatch {
			b.send()
		}
	}
}

// get returns an empty batch, a released one when there is one.
func (b *broadcastSink) get() *sharedBatch {
	select {
	case sb := <-b.free:
		sb.evs = sb.evs[:0]
		return sb
	default:
		return &sharedBatch{evs: make([]isa.Event, 0, fanoutBatch)}
	}
}

// release ends one consumer's use of sb; the last release recycles it.
func (b *broadcastSink) release(sb *sharedBatch) {
	if sb.refs.Add(-1) == 0 {
		b.free <- sb
	}
}

func (b *broadcastSink) send() {
	sb := b.cur
	b.cur = nil
	sb.refs.Store(int32(len(b.chans)))
	t0 := time.Now()
	for _, ch := range b.chans {
		ch <- sb
	}
	b.deliverNs += time.Since(t0).Nanoseconds()
}

func (b *broadcastSink) flush() {
	if b.cur != nil {
		b.send()
	}
}
