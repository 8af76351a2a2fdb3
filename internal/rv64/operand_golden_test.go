package rv64

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isacmp/internal/isa"
	"isacmp/internal/mem"
)

// -update regenerates testdata/operands.golden from the current
// executor:
//
//	go test ./internal/rv64 -run TestOperandGolden -update
//
// Inspect the diff before committing: every changed line is an
// operation whose retirement record changed.
var update = flag.Bool("update", false, "rewrite testdata/operands.golden")

// TestOperandGolden runs randomWords decodable words from the
// generator of TestRoundTripRandomWords and encodedWords words that
// randInst builds, which reaches every operation (random words rarely
// hit an operation whose encoding leaves few bits free, such as the
// FP conversions and moves).
const (
	randomWords  = 40000
	encodedWords = 20000
)

// operandMem is the memory every sampled word runs against: the word
// sits at its base, and every register points a little above it, so
// that each addressing mode's address stays mapped.
const (
	operandBase = 0x10000
	operandSize = 1 << 21
)

// TestOperandGolden pins the static half of every operation's
// execution record: for a seeded sample of decodable words, each word
// runs once on a fresh machine whose registers point into mapped
// memory, and the event it retires is hashed by operation. A word
// whose Step faults or exits retires no event and is skipped. The
// operations the compiler never emits (the A extension's LR, SC and
// AMOs, FCLASS) are covered here only.
func TestOperandGolden(t *testing.T) {
	var words []uint32
	r := rand.New(rand.NewSource(0xc0ffee))
	for len(words) < randomWords {
		w := r.Uint32()
		if _, err := Decode(w); err == nil {
			words = append(words, w)
		}
	}
	r = rand.New(rand.NewSource(2))
	for range encodedWords {
		words = append(words, MustEncode(randInst(r)))
	}
	m := mem.New(operandBase, operandSize)
	var counts [numOps]uint64
	var sums [numOps]uint64
	for i := range sums {
		sums[i] = fnv.New64a().Sum64()
	}
	for _, w := range words {
		inst, err := Decode(w)
		if err != nil {
			t.Fatalf("%#08x: %v", w, err)
		}
		f := Program{TextBase: operandBase}.Image(isa.RV64, []uint32{w}, nil)
		mach, err := NewMachine(f, m)
		if err != nil {
			t.Fatalf("%#08x: %v", w, err)
		}
		for j := range mach.X {
			if j != 0 {
				mach.X[j] = operandBase + 0x1000 + 16*uint64(j)
			}
			mach.F[j] = math.Float64bits(float64(j) + 0.5)
		}
		var ev isa.Event
		if done, err := mach.Step(&ev); done || err != nil {
			continue
		}
		counts[inst.Op]++
		sums[inst.Op] = mixOperands(sums[inst.Op], w, &ev)
	}
	var buf bytes.Buffer
	for op := Op(1); op < numOps; op++ {
		if specs[op].name == "" {
			continue
		}
		fmt.Fprintf(&buf, "%d\t%s\t%d\t%016x\n", op, op.Name(), counts[op], sums[op])
	}
	checkGolden(t, filepath.Join("testdata", "operands.golden"), buf.Bytes())
}

// mixOperands folds one retired word's record into h (FNV-1a): the
// word, its sources and destinations in order, whether it is a branch
// and taken, and its access sizes.
func mixOperands(h uint64, w uint32, ev *isa.Event) uint64 {
	b := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24), ev.NSrcs}
	for _, r := range ev.Srcs[:ev.NSrcs] {
		b = append(b, byte(r))
	}
	b = append(b, ev.NDsts)
	for _, r := range ev.Dsts[:ev.NDsts] {
		b = append(b, byte(r))
	}
	b = append(b, b2b(ev.Branch), b2b(ev.Taken), ev.LoadSize, ev.StoreSize)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func b2b(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, e := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(g) != len(e) {
		t.Errorf("%s has %d lines, the executor produced %d", path, len(e), len(g))
	}
	for i := 0; i < len(g) && i < len(e); i++ {
		if g[i] != e[i] {
			t.Errorf("line %d drifted:\n got  %s\n want %s", i+1, g[i], e[i])
		}
	}
}
