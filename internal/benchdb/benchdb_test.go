package benchdb

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianMADCV(t *testing.T) {
	cases := []struct {
		name   string
		xs     []float64
		median float64
		mad    float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 3, 0},
		{"odd", []float64{5, 1, 3}, 3, 2},
		{"even", []float64{1, 2, 3, 4}, 2.5, 1},
		{"outlier", []float64{10, 10, 10, 10, 1000}, 10, 0},
	}
	for _, c := range cases {
		if got := Median(c.xs); got != c.median {
			t.Errorf("%s: Median = %v, want %v", c.name, got, c.median)
		}
		if got := MAD(c.xs); got != c.mad {
			t.Errorf("%s: MAD = %v, want %v", c.name, got, c.mad)
		}
	}
	// The robust CV must shrug off the outlier the classic CV would be
	// dragged by.
	if cv := RobustCV([]float64{10, 10, 10, 10, 1000}); cv != 0 {
		t.Errorf("RobustCV with single outlier = %v, want 0", cv)
	}
	want := madToSigma * 1 / 2.5
	if cv := RobustCV([]float64{1, 2, 3, 4}); math.Abs(cv-want) > 1e-12 {
		t.Errorf("RobustCV = %v, want %v", cv, want)
	}
	if cv := RobustCV([]float64{-1, -2}); cv != 0 {
		t.Errorf("RobustCV of non-positive median = %v, want 0", cv)
	}
	if got := Min([]float64{3, 1, 2}); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
}

func TestFingerprintKeyExcludesLoad(t *testing.T) {
	a := &Fingerprint{CPUModel: "m", NumCPU: 8, GOMAXPROCS: 8, GoVersion: "go1.22", OS: "linux", Arch: "amd64", Governor: "performance", LoadAvg: 0.1}
	b := *a
	b.LoadAvg = 7.5
	if same, known := SameHost(a, &b); !known || !same {
		t.Fatalf("SameHost ignoring load: same=%v known=%v, want true/true", same, known)
	}
	b.Governor = "powersave"
	if same, known := SameHost(a, &b); !known || same {
		t.Fatalf("SameHost across governors: same=%v known=%v, want false/true", same, known)
	}
	if same, known := SameHost(a, nil); known || same {
		t.Fatalf("SameHost vs nil: same=%v known=%v, want false/false", same, known)
	}
}

func TestCollectFromFixtures(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	savedCPU, savedGov, savedLoad := cpuinfoPath, governorPath, loadavgPath
	defer func() { cpuinfoPath, governorPath, loadavgPath = savedCPU, savedGov, savedLoad }()
	cpuinfoPath = write("cpuinfo", "processor\t: 0\nmodel name\t: Example CPU @ 3.00GHz\nflags\t: fpu\n")
	governorPath = write("governor", "schedutil\n")
	loadavgPath = write("loadavg", "1.25 0.80 0.40 2/345 6789\n")
	fp := Collect()
	if fp.CPUModel != "Example CPU @ 3.00GHz" {
		t.Errorf("CPUModel = %q", fp.CPUModel)
	}
	if fp.Governor != "schedutil" {
		t.Errorf("Governor = %q", fp.Governor)
	}
	if fp.LoadAvg != 1.25 {
		t.Errorf("LoadAvg = %v", fp.LoadAvg)
	}
	if fp.NumCPU <= 0 || fp.GOMAXPROCS <= 0 || fp.GoVersion == "" {
		t.Errorf("core identity incomplete: %+v", fp)
	}
	// Missing files must degrade, never fail.
	cpuinfoPath = filepath.Join(dir, "missing")
	governorPath = filepath.Join(dir, "missing")
	loadavgPath = filepath.Join(dir, "missing")
	fp = Collect()
	if fp.CPUModel != "" || fp.Governor != "" || fp.LoadAvg != 0 {
		t.Errorf("missing sources should zero optional fields: %+v", fp)
	}
}

func TestRunProbe(t *testing.T) {
	p := RunProbe(3)
	if p.Reps != 3 {
		t.Fatalf("Reps = %d", p.Reps)
	}
	if p.MedianSeconds <= 0 || p.MinSeconds <= 0 || p.MinSeconds > p.MedianSeconds {
		t.Fatalf("implausible probe: %+v", p)
	}
	if p.CV < 0 {
		t.Fatalf("negative CV: %+v", p)
	}
	if d := RunProbe(0); d.Reps != DefaultProbeReps {
		t.Fatalf("default reps = %d, want %d", d.Reps, DefaultProbeReps)
	}
}

func TestDetectDrift(t *testing.T) {
	fpA := &Fingerprint{CPUModel: "m", NumCPU: 8, GOMAXPROCS: 8, GoVersion: "go1.22", OS: "linux", Arch: "amd64"}
	fpB := &Fingerprint{CPUModel: "m", NumCPU: 4, GOMAXPROCS: 4, GoVersion: "go1.22", OS: "linux", Arch: "amd64"}
	quiet := &Probe{Reps: 7, MedianSeconds: 0.0020, CV: 0.01}
	slowed := &Probe{Reps: 7, MedianSeconds: 0.0030, CV: 0.01}

	if d := DetectDrift(nil, fpA, quiet, quiet); d.Kind != "unknown" {
		t.Errorf("nil baseline fingerprint: %+v", d)
	}
	if d := DetectDrift(fpA, fpB, quiet, quiet); d.Kind != "fingerprint" || !d.HostDrifted() {
		t.Errorf("fingerprint mismatch: %+v", d)
	}
	if d := DetectDrift(fpA, fpA, quiet, slowed); d.Kind != "noise" || !d.HostDrifted() {
		t.Errorf("probe shift: %+v", d)
	}
	if d := DetectDrift(fpA, fpA, quiet, nil); d.Kind != "unknown" || d.HostDrifted() {
		t.Errorf("missing probe: %+v", d)
	}
	if d := DetectDrift(fpA, fpA, quiet, &Probe{MedianSeconds: 0.00205, CV: 0.01}); d.Kind != "none" || d.HostDrifted() {
		t.Errorf("stable pair: %+v", d)
	}
	if !strings.Contains(DetectDrift(fpA, fpB, quiet, quiet).Detail, "fingerprint changed") {
		t.Error("fingerprint drift detail should name the cause")
	}
}
