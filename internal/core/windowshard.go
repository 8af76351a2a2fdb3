package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"isacmp/internal/isa"
)

// shardChunk is the number of window-start positions one shard job
// covers. Each job carries the resolved events its windows can reach
// (shardChunk + max window size), about 0.8 MB at the paper's sizes.
// Its fold runs up to the largest window past the chunk, over events
// the next job folds again from its own restart: at the paper's sizes
// that is about 3% more lane steps than the sequential fold takes.
const shardChunk = 1 << 16

// ShardedWindowedCP computes exactly the same Figure 2 aggregates as
// WindowedCritPath, but concurrently: windows at different start
// positions are independent (paper section 6), so the stream is split
// into chunks of consecutive window starts and each chunk is evaluated
// by a shard worker. The calling goroutine resolves every event's
// producers once, as WindowedCritPath does, and ships runs of resolved
// events to the shards. Each shard restarts its windowFold at the
// job's first position and folds the windows starting in the job, by
// lanes when their ring fits laneBudget and per window otherwise, so
// every window gets the critical path WindowedCritPath gives it.
// Per-size sums and window counts are integers, so merging shard
// results is exact and independent of completion order — parallel
// results are bit-identical to the sequential implementation (enforced
// by tests and by the -parallel determinism contract in the README).
//
// Sharding pays only where cores would otherwise sit idle: one shard
// costs more CPU per event than WindowedCritPath, so a caller whose
// cores are already busy should run that instead (report.RunSuite
// shards a cell only over the workers its cells leave idle).
//
// Event must be called from a single goroutine. Results flushes the
// final chunk and the partial tail window, waits for every shard, and
// is idempotent; Event must not be called after Results. A caller
// that gives up on the stream calls Close instead.
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
	wg   sync.WaitGroup // the running shards
	// closed tells the shards to drop the jobs still queued.
	closed atomic.Bool

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
	w.wg.Add(shards)
	for i := 0; i < shards; i++ {
		go w.shard()
	}
	return w
}

// shard drains jobs, folding each into local sums, merging them into
// the shared accumulators and recycling the job's run.
func (w *ShardedWindowedCP) shard() {
	defer w.wg.Done()
	f := newWindowFold(w.sizes, w.strides, w.maxSize, laneKernelFold != nil)
	j := newJobFold(len(w.sizes))
	local := make([]windowAccum, len(w.sizes))
	for job := range w.jobs {
		if !w.closed.Load() {
			j.fold(&f, job, local)
			w.mu.Lock()
			for i := range local {
				w.acc[i].add(local[i])
			}
			w.mu.Unlock()
		}
		select {
		case w.free <- job.run:
		default:
		}
	}
}

// jobFold is a shard's scratch for folding one job at a time.
type jobFold struct {
	acc  []windowAccum // the fold's running sums since the restart
	last []uint64      // each size's last window end in the job, or 0
}

func newJobFold(sizes int) jobFold {
	return jobFold{acc: make([]windowAccum, sizes), last: make([]uint64, sizes)}
}

// fold sets out to the sums of the windows that start in
// [job.lo, job.hi) and end by job.run.end(), so every window is
// counted by exactly one job. It restarts f at lo and folds up to the
// last such window's end, taking each size's sums as its own last such
// window ends: the windows of that size f completes later start at hi
// or after, and belong to the next job.
func (j *jobFold) fold(f *windowFold, job windowJob, out []windowAccum) {
	end := job.run.end()
	for i, size := range f.sizes {
		j.last[i], out[i] = 0, windowAccum{}
		s, st := uint64(size), f.strides[i]
		if size <= 0 || end < s {
			continue
		}
		if k := min(job.hi-1, end-s) / st * st; k >= job.lo {
			j.last[i] = k + s
		}
	}
	f.restart(job.lo)
	clear(j.acc)
	for k := job.lo; ; {
		stop := ^uint64(0)
		for _, e := range j.last {
			if e > k {
				stop = min(stop, e)
			}
		}
		if stop == ^uint64(0) {
			return
		}
		f.fold(job.run, k, stop, j.acc)
		for i, e := range j.last {
			if e == stop {
				out[i] = j.acc[i]
			}
		}
		k = stop
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
		w.jobs <- windowJob{run: w.run, lo: w.run.base, hi: w.pos}
	}
	close(w.jobs)
	w.wg.Wait()

	// The tail window lies in the last maxSize events, which the run
	// always holds.
	tail := windowFold{sizes: w.sizes, strides: w.strides, dp: make([]uint32, w.maxSize)}
	w.results = tail.finish(w.run, w.pos, w.acc)
	w.done = true
	return w.results
}

// Close stops the shards without folding the rest of the stream: they
// drop the jobs still queued, and Close returns once each has finished
// its current one and exited. A caller that stops before Results, on
// an error or a panic, must call it, or the shards wait for jobs
// forever; after Results it does nothing. Neither Event nor Results
// may be called after Close.
func (w *ShardedWindowedCP) Close() {
	if w.done {
		return
	}
	w.done = true
	w.closed.Store(true)
	close(w.jobs)
	w.wg.Wait()
}
