// Package benchdb is host provenance and drift detection for the
// bench/ harness: a fingerprint of the measurement host, a calibrated
// noise probe of how quiet that host was, robust (median/MAD-based)
// statistics over small samples, and DetectDrift, which tells host
// drift from a code regression when two result documents are compared.
// The paper's headline claims are ratio measurements; this package
// records *where* a number was measured and *how noisy* the host was,
// so a ratio between two runs is only trusted when both are known.
package benchdb

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Fingerprint identifies the measurement host. Two documents whose
// fingerprints differ on any identity field were measured on
// different effective hardware and must not be ratio-compared: the
// difference is host drift, not code regression. LoadAvg is recorded
// for diagnosis but excluded from the identity key — load varies
// within a host; it explains noise, it does not change the host.
type Fingerprint struct {
	// CPUModel is the `model name` line from /proc/cpuinfo ("" when
	// unreadable, e.g. non-Linux).
	CPUModel string `json:"cpu_model,omitempty"`
	// NumCPU and GOMAXPROCS bound the parallelism the measurement saw.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// GoVersion is the toolchain that compiled the measuring binary.
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	// Governor is the cpu0 cpufreq scaling governor ("" when the
	// sysfs file is absent — VMs, containers, non-Linux).
	Governor string `json:"governor,omitempty"`
	// LoadAvg is the 1-minute load average at collection time.
	// Diagnostic only: excluded from Key.
	LoadAvg float64 `json:"load_avg,omitempty"`
}

// Linux provenance sources. Variables so tests can point them at
// fixtures.
var (
	cpuinfoPath  = "/proc/cpuinfo"
	governorPath = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
	loadavgPath  = "/proc/loadavg"
)

// Collect gathers the current host fingerprint. Every Linux-specific
// source degrades to its zero value when unreadable, so Collect never
// fails — a fingerprint with blank optional fields still carries the
// core identity (CPU count, toolchain, OS/arch).
func Collect() *Fingerprint {
	fp := &Fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if data, err := os.ReadFile(cpuinfoPath); err == nil {
		fp.CPUModel = cpuModel(string(data))
	}
	if data, err := os.ReadFile(governorPath); err == nil {
		fp.Governor = strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile(loadavgPath); err == nil {
		if fields := strings.Fields(string(data)); len(fields) > 0 {
			if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
				fp.LoadAvg = v
			}
		}
	}
	return fp
}

// cpuModel extracts the first `model name` value from /proc/cpuinfo
// content ("" when absent).
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// Key is the host identity string: every field that changes the
// meaning of a wall-time measurement, and nothing that merely varies
// within a host (LoadAvg). Two documents are ratio-comparable exactly
// when their keys are equal.
func (f *Fingerprint) Key() string {
	if f == nil {
		return ""
	}
	return fmt.Sprintf("%s|cpu=%d|gomaxprocs=%d|%s|%s/%s|gov=%s",
		f.CPUModel, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.OS, f.Arch, f.Governor)
}

// SameHost reports whether two fingerprints name the same effective
// host, and whether that judgment is even possible (known is false
// when either side predates fingerprints — legacy v1 documents).
func SameHost(a, b *Fingerprint) (same, known bool) {
	if a == nil || b == nil {
		return false, false
	}
	return a.Key() == b.Key(), true
}
