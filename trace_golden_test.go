package isacmp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isacmp/internal/fusion"
	"isacmp/internal/simeng"
)

// -update regenerates testdata/trace.golden from the current engine:
//
//	go test . -run TestTraceGolden -update
//
// Inspect the diff before committing: every changed line is a cell
// whose retirement stream changed.
var update = flag.Bool("update", false, "rewrite testdata/trace.golden")

// TestTraceGolden pins the retirement stream of every Tiny suite cell
// on the four targets, under the default compile and each ablation
// option alone, with fusion off and with every rule on both ISAs: one
// line per run holding the stream's trace digest and event count. A
// change to the executors, the predecoder or the fusion pass must
// leave this file byte-identical.
func TestTraceGolden(t *testing.T) {
	both, err := fusion.ParseSpec("both")
	if err != nil {
		t.Fatal(err)
	}
	options := []struct {
		name string
		opts CompilerOptions
	}{
		{"default", CompilerOptions{}},
		{"nofma", CompilerOptions{NoFMA: true}},
		{"nostrength", CompilerOptions{NoStrengthReduction: true}},
		{"nohoist", CompilerOptions{NoHoisting: true}},
	}
	var buf bytes.Buffer
	for _, prog := range Suite(Tiny) {
		for _, o := range options {
			for _, tgt := range Targets() {
				bin, err := CompileWithOptions(prog, tgt, o.opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, fused := range []bool{false, true} {
					mach, _, err := bin.NewMachine()
					if err != nil {
						t.Fatal(err)
					}
					dig := newTraceDigest()
					var sink Sink = dig
					var pass *fusion.Pass
					if fused {
						pass = fusion.NewPass(both, tgt.Arch, dig)
						sink = pass
					}
					if _, err := (&simeng.EmulationCore{}).Run(mach, sink); err != nil {
						t.Fatalf("%s %s %s: %v", prog.Name, o.name, tgt, err)
					}
					spec := "off"
					if pass != nil {
						pass.Flush()
						spec = "both"
					}
					fmt.Fprintf(&buf, "%s\t%s\t%s\t%s\t%016x\t%d\n", prog.Name, o.name, tgt, spec, dig.h, dig.n)
				}
			}
		}
	}
	path := filepath.Join("testdata", "trace.golden")
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
		t.Fatalf("%v (run `go test . -run TestTraceGolden -update` to create)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Errorf("trace.golden has %d lines, the engine produced %d", len(exp), len(got))
	}
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Errorf("line %d drifted:\n got  %s\n want %s", i+1, got[i], exp[i])
		}
	}
}
