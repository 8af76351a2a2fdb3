package durable

import "sync"

// Stats summarizes what durability did for a run; the manifest's
// durable block carries it, so a rerun shows cached-vs-computed
// counts.
type Stats struct {
	// Dir is the run directory holding the cache.
	Dir string `json:"dir"`
	// Cached counts cells served from the content cache: entries the
	// caller accepted and reported Served.
	Cached int `json:"cached_cells"`
	// Computed counts cells simulated this run and handed to the
	// cache. Failed cells are neither filed nor counted.
	Computed int `json:"computed_cells"`
	// IOErrors counts cache writes that failed and were survived
	// (result kept, durability lost).
	IOErrors int `json:"io_errors,omitempty"`
}

// Run is a durable run handle: the run directory's content cache and
// its counters. All methods are safe for concurrent use by pool
// workers.
type Run struct {
	cache *Cache
	mu    sync.Mutex
	stats Stats
	// Warn receives survived cache-write failures. Nil means silent.
	Warn func(format string, args ...any)
}

// Options configures nothing.
//
// Deprecated: kept so that bench/e2e.go's and bench/trace.go's
// durable.Open(dir, nil) and durable.Resume(dir, nil) still compile.
// ROADMAP item 5 deletes it with those call sites.
type Options struct{}

// Open opens (creating if needed) the content cache in dir. Every
// cell that an earlier run in dir finished is served from it.
func Open(dir string, _ *Options) (*Run, error) {
	cache, err := OpenCache(CachePath(dir))
	if err != nil {
		return nil, err
	}
	return &Run{cache: cache, stats: Stats{Dir: dir}}, nil
}

// Resume is Open.
//
// Deprecated: use Open. bench/trace.go times it as durable.resume_ms;
// ROADMAP item 5 deletes it with that row.
func Resume(dir string, opts *Options) (*Run, error) { return Open(dir, opts) }

// Lookup returns the cached payload of the cell whose inputs hash to
// hash, or nil when the cell must be computed. workload and target
// name the cell; the hash alone addresses its entry. A payload the
// caller serves is counted by Served; one it rejects is not, and the
// cell it recomputes counts in Computed instead.
func (r *Run) Lookup(workload, target, hash string) []byte {
	payload, ok := r.cache.Get(hash)
	if !ok {
		return nil
	}
	return payload
}

// Served counts a cell served from a payload Lookup returned.
func (r *Run) Served() {
	r.mu.Lock()
	r.stats.Cached++
	r.mu.Unlock()
}

// CellFinished files a computed cell's canonical row in the cache and
// counts it in Computed. A failed put is survived: the result stays in
// memory, the cell counts in IOErrors, and Warn says why. fromCache
// marks a cell served from the cache, which is filed already, so the
// call does nothing; only bench/trace.go passes true, and ROADMAP item
// 5 drops the parameter.
func (r *Run) CellFinished(workload, target, hash string, payload []byte, fromCache bool) {
	if fromCache {
		return
	}
	err := r.cache.Put(hash, payload)
	r.mu.Lock()
	r.stats.Computed++
	if err != nil {
		r.stats.IOErrors++
	}
	r.mu.Unlock()
	if err != nil && r.Warn != nil {
		r.Warn("%s/%s: cache put: %v", workload, target, err)
	}
}

// CellStarted does nothing: the cache files a cell when it finishes.
//
// Deprecated: only bench/trace.go calls it (durable.journal_append_ms);
// ROADMAP item 5 deletes it with that row.
func (r *Run) CellStarted(workload, target, hash string) {}

// RunComplete does nothing.
//
// Deprecated: only bench/trace.go calls it; ROADMAP item 5 deletes
// it.
func (r *Run) RunComplete() {}

// Close does nothing: a Run holds no open file.
//
// Deprecated: only bench/e2e.go and bench/trace.go call it; ROADMAP
// item 5 deletes it.
func (r *Run) Close() error { return nil }

// Stats returns a snapshot of the durability counters.
func (r *Run) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
