package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"strconv"

	"isacmp/internal/ir"
	"isacmp/internal/report"
	"isacmp/internal/workloads"
)

// The simulated results are the spec: a change that only speeds the
// engine up must leave every paper number identical. Each rep's rows
// are rendered into a canonical byte form and hashed, and the hash is
// compared with expected.json, captured from the tree that defined the
// benchmark. Only the paper's numbers are rendered (not the whole
// manifest), so new manifest fields do not touch the benchmark.

//go:embed expected.json
var expectedJSON []byte

// expected is the reference captured by `capture`.
type expected struct {
	// Scale is the workload scale the digests were captured at; runs at
	// another scale (the tests' Tiny) check invariants only.
	Scale string `json:"scale"`
	// Digests maps each workload to the hash of its rendered rows.
	Digests map[string]string `json:"digests"`
	// Cells holds paper-matrix's architectural path length and
	// per-kernel counts per cell: the reference the cross-workload
	// invariants compare pathlen-sim and armed-fanout against, which
	// lets a single-workload run check them.
	Cells map[string]cellRef `json:"cells"`
}

type cellRef struct {
	PathLen uint64            `json:"path_len"`
	Regions map[string]uint64 `json:"regions"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// cellID names a cell "<program>/<target>", e.g. "stream/AArch64/GCC 9.2".
func cellID(prog string, r *report.Row) string { return prog + "/" + r.Target.String() }

// byPaperOrder visits the rows in (workload, target) order — the
// paper's program order, then the target columns — whatever order
// the seed passed the programs to RunSuite in.
func byPaperOrder(progs []*ir.Program, rows [][]report.Row, visit func(prog string, r *report.Row)) {
	idx := make(map[string]int, len(progs))
	for i, p := range progs {
		idx[p.Name] = i
	}
	for _, name := range workloads.Names() {
		i, ok := idx[name]
		if !ok {
			continue
		}
		for j := range rows[i] {
			visit(name, &rows[i][j])
		}
	}
}

// writeCell renders the paper numbers of one row: PathLen, Regions,
// Other, CP, ScaledCP, Windows and the fused event count. Floats are
// written in shortest round-trip form, so the rendering is exact.
func writeCell(w io.Writer, id string, r *report.Row) {
	fmt.Fprintf(w, "cell %s\n", id)
	if f := r.Failure; f != nil {
		fmt.Fprintf(w, "failed %s\n", f.Reason)
		return
	}
	fmt.Fprintf(w, "pathlen %d other %d cp %d scaledcp %d\n", r.PathLen, r.Other, r.CP, r.ScaledCP)
	for _, rc := range r.Regions {
		fmt.Fprintf(w, "region %s %d\n", rc.Name, rc.Count)
	}
	for _, wr := range r.Windows {
		fmt.Fprintf(w, "window %d %d %s %s\n", wr.Size, wr.Windows,
			strconv.FormatFloat(wr.MeanCP, 'g', -1, 64), strconv.FormatFloat(wr.MeanILP, 'g', -1, 64))
	}
	if r.Fusion != nil {
		fmt.Fprintf(w, "fused %d\n", r.Fusion.EventsOut)
	}
}

// digest hashes the canonical rendering of every row.
func digest(progs []*ir.Program, rows [][]report.Row) string {
	h := sha256.New()
	byPaperOrder(progs, rows, func(prog string, r *report.Row) { writeCell(h, cellID(prog, r), r) })
	return hex.EncodeToString(h.Sum(nil))
}

// checkRows verifies one rep of a workload and returns how many of its
// cells count as failed, with a reason for each problem: FAILED rows,
// a digest that differs from expected.json (every cell of the rep
// counts then), and the cross-workload invariants — pathlen-sim's
// PathLen and Regions and armed-fanout's architectural PathLen must
// equal paper-matrix's for every cell. All workloads pass paper-matrix
// cells except stream-long, whose cells are its own.
func checkRows(w workload, scale workloads.Scale, progs []*ir.Program, rows [][]report.Row, ref *expected) (sum string, failed int, errs []string) {
	sum = digest(progs, rows)
	cells := 0
	byPaperOrder(progs, rows, func(prog string, r *report.Row) {
		cells++
		id := cellID(prog, r)
		if f := r.Failure; f != nil {
			failed++
			errs = append(errs, fmt.Sprintf("%s: FAILED(%s): %s", id, f.Reason, f.Message))
			return
		}
		if scale.String() != ref.Scale || w.name == "stream-long" {
			return
		}
		want, ok := ref.Cells[id]
		switch {
		case !ok:
			failed++
			errs = append(errs, fmt.Sprintf("%s: no reference cell in expected.json", id))
		case r.PathLen != want.PathLen:
			failed++
			errs = append(errs, fmt.Sprintf("%s: PathLen %d, paper-matrix has %d", id, r.PathLen, want.PathLen))
		// Fusion rewrites the stream the regions count; only the
		// architectural PathLen is shared then.
		case !w.ex.Fusion.Enabled() && !maps.Equal(regionMap(r), want.Regions):
			failed++
			errs = append(errs, fmt.Sprintf("%s: Regions differ from paper-matrix's", id))
		}
	})
	if scale.String() == ref.Scale && sum != ref.Digests[w.name] {
		failed = cells
		errs = append(errs, fmt.Sprintf("digest %.16s does not match expected.json %.16s", sum, ref.Digests[w.name]))
	}
	return sum, failed, errs
}

func regionMap(r *report.Row) map[string]uint64 {
	m := make(map[string]uint64, len(r.Regions))
	for _, rc := range r.Regions {
		m[rc.Name] = rc.Count
	}
	return m
}
