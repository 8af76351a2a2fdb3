package core

import (
	"runtime"
	"sync"

	"isacmp/internal/isa"
)

// shardChunk is the number of window-start positions one shard job
// covers. Each job carries the resolved events its windows can reach
// (shardChunk + max window size), so the constant trades per-job copy
// overhead against scheduling granularity.
const shardChunk = 8192

// ShardedWindowedCP computes exactly the same Figure 2 aggregates as
// WindowedCritPath, but concurrently: windows at different start
// positions are independent (paper section 6), so the stream is split
// into chunks of consecutive window starts and each chunk is evaluated
// by a shard worker. The calling goroutine resolves every event's
// producers once, as WindowedCritPath does, and ships runs of resolved
// events to the shards, which fold each window with prodRun.cp. That
// gives every window the CP WindowedCritPath's lanes give it, and
// per-size sums and window counts are integers, so merging shard
// results is exact and independent of completion order — parallel
// results are bit-identical to the sequential implementation (enforced
// by tests and by the -parallel determinism contract in the README).
//
// Event must be called from a single goroutine. Results flushes the
// final chunk and the partial tail window, waits for every shard, and
// is idempotent; Event must not be called after Results.
type ShardedWindowedCP struct {
	sizes   []int
	strides []uint64
	maxSize uint64

	res resolver
	run *prodRun // events [run.base, pos)
	pos uint64   // total events seen

	jobs chan windowJob
	// free hands runs back from the shards once they are done with
	// them; it holds at most as many as jobs can queue.
	free chan *prodRun
	wg   sync.WaitGroup

	mu  sync.Mutex
	acc []windowAccum

	done    bool
	results []WindowResult
}

// windowJob asks a shard to evaluate, for every size, the complete
// windows whose start index lies in [lo, hi) and whose events are
// fully contained in the carried run.
type windowJob struct {
	run    *prodRun
	lo, hi uint64 // absolute window-start range
}

// NewShardedWindowedCP builds a concurrent windowed-CP analysis over
// the given sizes and stride (0 selects the paper's size/2), fanned
// out over `shards` worker goroutines (<=0 selects GOMAXPROCS).
func NewShardedWindowedCP(sizes []int, stride, shards int) *ShardedWindowedCP {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	maxSize := maxWindow(sizes)
	w := &ShardedWindowedCP{
		sizes:   append([]int(nil), sizes...),
		strides: windowStrides(sizes, stride),
		maxSize: maxSize,
		res:     newResolver(maxSize),
		run:     newProdRun(shardChunk + maxSize),
		jobs:    make(chan windowJob, 2*shards),
		free:    make(chan *prodRun, 2*shards),
		acc:     make([]windowAccum, len(sizes)),
	}
	for i := 0; i < shards; i++ {
		go w.shard()
	}
	return w
}

// shard drains jobs, folding windows into local sums, merging them
// into the shared accumulators and recycling each job's run.
func (w *ShardedWindowedCP) shard() {
	dp := make([]uint32, w.maxSize)
	local := make([]windowAccum, len(w.sizes))
	for job := range w.jobs {
		clear(local)
		for i, size := range w.sizes {
			if size <= 0 {
				continue
			}
			s, st := uint64(size), w.strides[i]
			avail := job.run.end()
			// First window start in [lo, hi) that is a multiple of the
			// stride.
			k := (job.lo + st - 1) / st * st
			for ; k < job.hi && k+s <= avail; k += st {
				local[i].add(windowAccum{sumCP: job.run.cp(k, k+s, dp), sumLen: s, windows: 1})
			}
		}
		w.mu.Lock()
		for i := range local {
			w.acc[i].add(local[i])
		}
		w.mu.Unlock()
		select {
		case w.free <- job.run:
		default:
		}
		w.wg.Done()
	}
}

// Events buffers a whole batch of instructions — the isa.BatchSink
// fast path.
func (w *ShardedWindowedCP) Events(evs []isa.Event) {
	for i := range evs {
		w.Event(&evs[i])
	}
}

// Event resolves one instruction and dispatches a chunk of window
// starts to the shards once every window starting in it is complete.
func (w *ShardedWindowedCP) Event(ev *isa.Event) {
	w.run.add(&w.res, ev)
	w.pos++

	// Windows starting in [base, base+shardChunk) reach at most event
	// base+shardChunk+maxSize-2, so once the run holds
	// shardChunk+maxSize events the whole chunk is evaluable.
	if w.pos-w.run.base == shardChunk+w.maxSize {
		w.wg.Add(1)
		w.jobs <- windowJob{run: w.run, lo: w.run.base, hi: w.run.base + shardChunk}
		var next *prodRun
		select {
		case next = <-w.free:
		default:
			next = newProdRun(shardChunk + w.maxSize)
		}
		next.carry(w.run, w.maxSize)
		w.run = next
	}
}

// Results flushes the remaining windows, waits for every shard and
// returns the aggregates, bit-identical to the sequential
// WindowedCritPath over the same stream. Subsequent calls return the
// cached slice.
func (w *ShardedWindowedCP) Results() []WindowResult {
	if w.done {
		return w.results
	}
	if w.pos > w.run.base {
		// Remaining complete windows: starts in [base, pos); the job
		// bound k+s <= run.end() == pos keeps partial ones out.
		w.wg.Add(1)
		w.jobs <- windowJob{run: w.run, lo: w.run.base, hi: w.pos}
	}
	close(w.jobs)
	w.wg.Wait()

	// The tail window lies in the last maxSize events, which the run
	// always holds.
	dp := make([]uint32, w.maxSize)
	w.results = make([]WindowResult, len(w.sizes))
	for i, size := range w.sizes {
		acc := w.acc[i]
		if size > 0 {
			if lo, hi, ok := tailSpan(w.pos, uint64(size), w.strides[i]); ok {
				acc.add(windowAccum{sumCP: w.run.cp(lo, hi, dp), sumLen: hi - lo, windows: 1})
			}
		}
		w.results[i] = finishWindowResult(size, acc)
	}
	w.done = true
	return w.results
}
