package benchdb

import (
	"fmt"
	"math"
	"sort"
)

// Robust statistics over small benchmark samples. Benchmark rep times
// are contaminated by one-sided outliers (a preempted rep is slow,
// never fast), so the summary statistics here are median/MAD-based:
// a single wild rep moves them barely at all, where mean/stddev would
// be dragged by it.

// Median returns the sample median (0 for an empty sample).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Min returns the smallest sample value (0 for an empty sample).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// MAD returns the median absolute deviation from the median.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// madToSigma scales MAD to a standard-deviation-comparable spread for
// normally distributed samples (1/Φ⁻¹(3/4)).
const madToSigma = 1.4826

// RobustCV returns the MAD-based coefficient of variation,
// madToSigma·MAD/median — the relative spread of the sample,
// insensitive to outlier reps. 0 when the median is not positive.
func RobustCV(xs []float64) float64 {
	med := Median(xs)
	if med <= 0 {
		return 0
	}
	return madToSigma * MAD(xs) / med
}

// NoiseDriftTolerance is how far the fresh noise-probe median may
// move from the baseline's before the host is judged to have drifted
// (frequency scaling, thermal throttling, a co-tenant): the probe
// workload is byte-identical across runs, so a >10% shift cannot be
// a property of the code under test.
const NoiseDriftTolerance = 1.10

// Drift classifies why two documents are (or are not) comparable.
type Drift struct {
	// Kind is one of "none" (same host, quiet), "fingerprint" (host
	// identity changed), "noise" (same identity, probe shifted), or
	// "unknown" (a side predates fingerprints/probes).
	Kind string `json:"kind"`
	// Detail is the human diagnosis.
	Detail string `json:"detail"`
}

// HostDrifted reports whether the drift kind indicts the host rather
// than the code.
func (d Drift) HostDrifted() bool { return d.Kind == "fingerprint" || d.Kind == "noise" }

// DetectDrift distinguishes host drift from a clean comparison: a
// fingerprint identity mismatch is drift outright; with identical
// fingerprints, a noise-probe median shifted beyond
// NoiseDriftTolerance (either direction) is drift of the host's
// effective speed. Only a same-fingerprint, stable-probe pair earns
// "none" — the precondition under which a regressed metric indicts
// the code.
func DetectDrift(baseFP, freshFP *Fingerprint, baseNoise, freshNoise *Probe) Drift {
	same, known := SameHost(baseFP, freshFP)
	if !known {
		return Drift{Kind: "unknown", Detail: "a document predates host fingerprints; drift cannot be ruled out"}
	}
	if !same {
		return Drift{
			Kind:   "fingerprint",
			Detail: fmt.Sprintf("host fingerprint changed: baseline %q vs fresh %q", baseFP.Key(), freshFP.Key()),
		}
	}
	if baseNoise == nil || freshNoise == nil {
		return Drift{Kind: "unknown", Detail: "a document carries no noise probe; probe drift cannot be ruled out"}
	}
	if baseNoise.MedianSeconds > 0 {
		ratio := freshNoise.MedianSeconds / baseNoise.MedianSeconds
		if ratio > NoiseDriftTolerance || ratio < 1/NoiseDriftTolerance {
			return Drift{
				Kind: "noise",
				Detail: fmt.Sprintf("noise-probe median moved %.1f%% (%.4fs → %.4fs) on an identical workload: the host's effective speed changed",
					(ratio-1)*100, baseNoise.MedianSeconds, freshNoise.MedianSeconds),
			}
		}
	}
	return Drift{Kind: "none", Detail: "same fingerprint, stable noise probe"}
}
