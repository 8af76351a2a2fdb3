package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"isacmp/internal/benchdb"
)

// Exit codes of compare, matching bench-watch: 1 is a regression
// beyond a bound, 3 a refused comparison (host drift).
const (
	exitRegressed = 1
	exitUsage     = 2
	exitHostDrift = 3
)

// compareSide is one side of a comparison: one result document, or a
// set of them (a directory). With one document the samples are its
// reps; with several, each document's reported median is one sample —
// the form in which sets of runs with different seeds are compared.
type compareSide struct {
	path  string
	docs  []resultDoc
	host  *benchdb.Fingerprint
	noise *benchdb.Probe
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "bench compare: usage: compare BASE FRESH (each an end-to-end result document or a directory of them)")
		return exitUsage
	}
	var sides [2]*compareSide
	for i := range sides {
		s, err := loadSide(fs.Arg(i))
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %v\n", err)
			if errors.As(err, new(hostMixError)) {
				return exitHostDrift
			}
			return exitUsage
		}
		sides[i] = s
	}
	return compareSides(sides[0], sides[1], stdout, stderr)
}

// hostMixError is a side whose documents come from different hosts.
type hostMixError struct{ path, a, b string }

func (e hostMixError) Error() string {
	return fmt.Sprintf("%s mixes hosts %q and %q", e.path, e.a, e.b)
}

func loadSide(path string) (*compareSide, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	s := &compareSide{path: path}
	var probes, cvs []float64
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc resultDoc
		if err := json.Unmarshal(data, &doc); err != nil || doc.Schema != schema || doc.Mode != "e2e" {
			if len(files) == 1 {
				return nil, fmt.Errorf("%s is not an end-to-end %s document", f, schema)
			}
			continue
		}
		if s.host == nil {
			s.host = doc.Provenance.Host
		} else if same, _ := benchdb.SameHost(s.host, doc.Provenance.Host); !same {
			return nil, hostMixError{path, s.host.Key(), doc.Provenance.Host.Key()}
		}
		if p := doc.Provenance.Noise; p != nil {
			probes = append(probes, p.MedianSeconds)
			cvs = append(cvs, p.CV)
		}
		s.docs = append(s.docs, doc)
	}
	if len(s.docs) == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end %s documents", path, schema)
	}
	if len(probes) > 0 {
		s.noise = &benchdb.Probe{Reps: len(probes), MedianSeconds: benchdb.Median(probes), CV: benchdb.Median(cvs)}
	}
	return s, nil
}

func (s *compareSide) samples(workload, metric string) []float64 {
	var out []float64
	for _, d := range s.docs {
		for _, wd := range d.Workloads {
			if wd.Name != workload {
				continue
			}
			v, ok := wd.Metrics[metric]
			switch {
			case !ok:
			case len(s.docs) == 1:
				out = append(out, v.Samples...)
			default:
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// worsening returns how much worse fresh is than base as a share of
// base (negative when it is better); from a zero base, the absolute
// change.
func worsening(base, fresh float64, better string) float64 {
	d := fresh - base
	if better == "higher" {
		d = -d
	}
	if base == 0 {
		return d
	}
	return d / base
}

func compareSides(base, fresh *compareSide, stdout, stderr io.Writer) int {
	drift := benchdb.DetectDrift(base.host, fresh.host, base.noise, fresh.noise)
	if drift.HostDrifted() {
		fmt.Fprintf(stderr, "bench compare: refusing to compare: %s\n", drift.Detail)
		return exitHostDrift
	}
	fmt.Fprintf(stdout, "base %s (%d docs) vs fresh %s (%d docs); host check: %s\n",
		base.path, len(base.docs), fresh.path, len(fresh.docs), drift.Detail)
	fmt.Fprintf(stdout, "%-13s %-17s %32s %32s %9s %6s  %s\n",
		"workload", "metric", "base median [q1, q3] n", "fresh median [q1, q3] n", "worse by", "bound", "verdict")
	code := 0
	for _, w := range benchWorkloads {
		for _, m := range e2eMetrics {
			a, b := base.samples(w.name, m.name), fresh.samples(w.name, m.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			sa, sb := summarize(a), summarize(b)
			worse := worsening(sa.Value, sb.Value, m.better)
			verdict := "within bound"
			if worse > m.bound {
				verdict = "OUTSIDE bound"
				code = exitRegressed
			}
			fmt.Fprintf(stdout, "%-13s %-17s %32s %32s %8.2f%% %5.0f%%  %s\n",
				w.name, m.name, describe(sa), describe(sb), 100*worse, 100*m.bound, verdict)
		}
	}
	return code
}

func describe(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Value, s.Q1, s.Q3, s.N)
}
