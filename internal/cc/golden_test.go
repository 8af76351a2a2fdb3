package cc

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isacmp/internal/ir"
	"isacmp/internal/workloads"
)

// -update regenerates testdata/images.golden from the current
// compiler:
//
//	go test ./internal/cc -run TestImageGolden -update
//
// Inspect the diff before committing: every changed line is a changed
// executable.
var update = flag.Bool("update", false, "rewrite testdata/images.golden")

// goldenOptions are the option sets every golden program is compiled
// under: the defaults and each ablation knob alone.
var goldenOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"nofma", Options{NoFMA: true}},
	{"nostrength", Options{NoStrengthReduction: true}},
	{"nohoist", Options{NoHoisting: true}},
}

// goldenProgram is one program of the image golden under a unique name.
type goldenProgram struct {
	name string
	prog *ir.Program
}

// goldenPrograms lists the programs TestImageGolden compiles: the
// workload suite at tiny and small scale, ir.RandomProgram seeds
// 0-149, and every program the package's tests compile. Paper scale is
// left out: one compile of its suite for one target took 0.5 s on a
// 2-vCPU Xeon VM, half of it laying out the data segment, and its
// STREAM image alone carries 240 MB of array data to write and hash
// for each of the 16 target and option pairs.
func goldenPrograms() []goldenProgram {
	var out []goldenProgram
	for _, s := range []workloads.Scale{workloads.Tiny, workloads.Small} {
		for _, p := range workloads.Suite(s) {
			out = append(out, goldenProgram{"suite/" + s.String() + "/" + p.Name, p})
		}
	}
	for seed := 0; seed < 150; seed++ {
		p := ir.RandomProgram(rand.New(rand.NewSource(int64(seed))))
		out = append(out, goldenProgram{fmt.Sprintf("random/%d", seed), p})
	}
	for _, tp := range []goldenProgram{
		{"copy64", streamCopy(64)},
		{"copy100000", streamCopy(100000)},
		{"triad", triadProgram()},
		{"nested", nestedProgram()},
		{"cond", condProgram()},
		{"mathops", mathopsProgram()},
		{"ints", intsProgram()},
		{"repeat", repeatProgram()},
		{"varbounds", varboundsProgram()},
		{"empty", emptyProgram()},
		{"offset", offsetProgram()},
		{"bad", badProgram()},
		{"rba", rbaProgram()},
	} {
		out = append(out, goldenProgram{"test/" + tp.name, tp.prog})
	}
	return out
}

// TestImageGolden pins every image the compiler builds for the golden
// programs: one line per (program, option set, target) holding the
// SHA-256 of Compiled.File.Write(), or the exact compile error. A
// refactor of the back ends must leave this file byte-identical.
func TestImageGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, gp := range goldenPrograms() {
		for _, o := range goldenOptions {
			for _, tgt := range Targets() {
				var res string
				c, err := CompileOpts(gp.prog, tgt, o.opts)
				if err != nil {
					res = "error: " + err.Error()
				} else {
					res = fmt.Sprintf("%x", sha256.Sum256(c.File.Write()))
				}
				fmt.Fprintf(&buf, "%s\t%s\t%s\t%s\n", gp.name, o.name, tgt, res)
			}
		}
	}
	path := filepath.Join("testdata", "images.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/cc -run TestImageGolden -update` to create)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Errorf("images.golden has %d lines, the compiler produced %d", len(exp), len(got))
	}
	shown := 0
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] && shown < 10 {
			t.Errorf("line %d drifted:\n got  %s\n want %s", i+1, got[i], exp[i])
			shown++
		}
	}
	if shown == 0 {
		t.Error("images.golden drifted")
	}
}
