package telemetry

import (
	"sort"

	"isacmp/internal/isa"
)

// Per-cell counter deltas are the durability layer's view of the
// metrics registry: a cell accumulates its counts locally
// (NewCellMetrics), folds in the predecode and fusion counters, and
// the finished map is cached with the result and applied to the
// shared registry as one transaction. Sorted application keeps the
// registry's creation order — and therefore the manifest metrics
// snapshot — byte-identical whether a cell was computed or served
// from the content cache.

// ApplyCounters adds a cell's counter delta to the registry in sorted
// name order (nil registry or empty delta is a no-op).
func ApplyCounters(r *Registry, counters map[string]uint64) {
	if r == nil || len(counters) == 0 {
		return
	}
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Counter(name).Add(counters[name])
	}
}

// AddPredecodeCounters folds a machine's predecode-cache coverage
// into a cell's counter delta ("predecode.text_words",
// "predecode.bad_words", "predecode.fallbacks").
func AddPredecodeCounters(counters map[string]uint64, st isa.PredecodeStats) {
	counters["predecode.text_words"] += st.TextWords
	counters["predecode.bad_words"] += st.BadWords
	counters["predecode.fallbacks"] += st.Fallbacks
}

// AddFusionCounters folds the fusion-pass counters into a cell's
// counter delta ("fusion.events_in", "fusion.events_out",
// "fusion.hits.<rule>"). Enabled rules appear even with zero hits,
// matching the manifest fusion block.
func AddFusionCounters(counters map[string]uint64, fs *FusionStats) {
	counters["fusion.events_in"] += fs.EventsIn
	counters["fusion.events_out"] += fs.EventsOut
	for _, rl := range fs.Rules {
		counters["fusion.hits."+rl.Rule] += rl.Hits
	}
}
