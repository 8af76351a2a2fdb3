package benchdb

import "time"

// The noise probe is a short calibrated spin loop: a fixed,
// deterministic amount of pure-CPU work timed a handful of times.
// Its absolute wall time tracks the host's effective single-thread
// speed (frequency scaling, thermal state) and its dispersion tracks
// the host's current measurement noise (preemption, co-tenants).
// Because the work is identical in every run of every benchmark, a
// shift in the probe median between two documents is host drift by
// construction — the code under test never touches the probe.

const (
	// probeIters is the spin-loop trip count: ~1–3 ms per rep on
	// contemporary hardware — long enough to ride over timer and
	// scheduler granularity, short enough that a full probe
	// (DefaultProbeReps reps plus warmup) costs ~10–20 ms and stays
	// well under 1% of a seconds-long bench run.
	probeIters = 1 << 20
	// DefaultProbeReps is how many timed reps RunProbe takes by default
	// (plus one untimed warmup).
	DefaultProbeReps = 5
)

// Probe is the recorded noise-probe result.
type Probe struct {
	// Reps is how many timed spin-loop reps were taken.
	Reps int `json:"reps"`
	// MedianSeconds and MinSeconds summarize the rep wall times. The
	// median is the drift signal; the min is the "quiet host" floor.
	MedianSeconds float64 `json:"median_seconds"`
	MinSeconds    float64 `json:"min_seconds"`
	// CV is the robust coefficient of variation of the rep times
	// (1.4826·MAD/median): the host's current relative measurement
	// noise. Noise-aware gates widen their tolerance with it.
	CV float64 `json:"cv"`
}

// probeSink defeats dead-code elimination of the spin loop.
var probeSink uint64

// spin runs the fixed xorshift64 workload once.
func spin() {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
}

// RunProbe times the calibrated spin loop reps times (after one
// warmup) and returns the dispersion summary. reps <= 0 uses
// DefaultProbeReps.
func RunProbe(reps int) *Probe {
	if reps <= 0 {
		reps = DefaultProbeReps
	}
	spin() // warmup: fault in code, settle frequency
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		spin()
		times[i] = time.Since(start).Seconds()
	}
	return &Probe{
		Reps:          reps,
		MedianSeconds: Median(times),
		MinSeconds:    Min(times),
		CV:            RobustCV(times),
	}
}
