package core

import (
	"fmt"
	"math/rand"
	"testing"

	"isacmp/internal/a64"
	"isacmp/internal/cc"
	"isacmp/internal/fusion"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
	"isacmp/internal/workloads"
)

// The reference below is deliberately naive: fresh maps for every
// window, window placement derived directly from the paper's rule, and
// memory words found byte by byte. It shares no code with the
// optimised analyses it checks.

// refWords lists the 8-byte-aligned words an access of size bytes at
// addr touches.
func refWords(addr uint64, size uint8) []uint64 {
	var out []uint64
	for b := uint64(0); b < uint64(size); b++ {
		if w := (addr + b) &^ 7; len(out) == 0 || out[len(out)-1] != w {
			out = append(out, w)
		}
	}
	return out
}

// refCP returns the unit-weight and the latency-scaled critical path
// of evs (section 4.1; loads and stores weigh 1 when scaled).
func refCP(evs []isa.Event, lat *simeng.LatencyModel) (cp, scaled uint64) {
	reg := map[isa.Reg][2]uint64{}
	mem := map[uint64][2]uint64{}
	for i := range evs {
		ev := &evs[i]
		var in [2]uint64
		take := func(v [2]uint64) { in[0], in[1] = max(in[0], v[0]), max(in[1], v[1]) }
		for _, r := range ev.Srcs[:ev.NSrcs] {
			take(reg[r])
		}
		for _, w := range append(refWords(ev.LoadAddr, ev.LoadSize), refWords(ev.Load2Addr, ev.Load2Size)...) {
			take(mem[w])
		}
		weight := uint64(1)
		if ev.Group != isa.GroupLoad && ev.Group != isa.GroupStore {
			weight = uint64(lat.Latency(ev.Group))
		}
		out := [2]uint64{in[0] + 1, in[1] + weight}
		for _, r := range ev.Dsts[:ev.NDsts] {
			reg[r] = out
		}
		for _, w := range refWords(ev.StoreAddr, ev.StoreSize) {
			mem[w] = out
		}
		cp, scaled = max(cp, out[0]), max(scaled, out[1])
	}
	return cp, scaled
}

// refWindows is Figure 2 by the paper's rule: windows of each size
// start at 0 and every stride (size/2 by default) while they fit, and
// one final window snapped to the stream end covers any instructions
// the last complete window missed (the whole stream when it is shorter
// than the window).
func refWindows(evs []isa.Event, sizes []int, stride int) []WindowResult {
	n, unit := len(evs), simeng.UnitLatencies()
	out := make([]WindowResult, len(sizes))
	for i, size := range sizes {
		out[i].Size = size
		if size <= 0 {
			continue
		}
		st := stride
		if st == 0 {
			st = size / 2
		}
		st = min(max(st, 1), size)
		var sumCP, sumLen, count, covered int
		window := func(lo, hi int) {
			cp, _ := refCP(evs[lo:hi], unit)
			sumCP, sumLen, count, covered = sumCP+int(cp), sumLen+hi-lo, count+1, hi
		}
		for lo := 0; lo+size <= n; lo += st {
			window(lo, lo+size)
		}
		if covered < n {
			window(max(n-size, 0), n)
		}
		if count > 0 {
			out[i] = WindowResult{Size: size, Windows: uint64(count), MeanCP: float64(sumCP) / float64(count)}
			out[i].MeanILP = float64(sumLen) / float64(count) / out[i].MeanCP
		}
	}
	return out
}

// checkOracle diffs every optimised analysis against the reference on
// one stream.
func checkOracle(t *testing.T, name string, evs []isa.Event, sizes []int, stride int) {
	t.Helper()
	want := refWindows(evs, sizes, stride)
	seq := NewWindowedCritPathStride(sizes, stride)
	seq.Events(evs)
	analyzers := map[string]WindowAnalyzer{"sequential": seq}
	for _, shards := range []int{1, 2, 3} {
		s := NewShardedWindowedCP(sizes, stride, shards)
		s.Events(evs)
		analyzers[fmt.Sprintf("%d-shard", shards)] = s
	}
	for which, a := range analyzers {
		for i, got := range a.Results() {
			if got != want[i] {
				t.Fatalf("%s: %s windowed CP size %d = %+v, reference %+v", name, which, sizes[i], got, want[i])
			}
		}
	}
	lat := simeng.TX2Latencies()
	cp, scaled := NewCritPath(), NewScaledCritPath(lat)
	cp.Events(evs)
	scaled.Events(evs)
	if wantCP, wantScaled := refCP(evs, lat); cp.CP() != wantCP || scaled.CP() != wantScaled {
		t.Fatalf("%s: CP %d / scaled %d, reference %d / %d", name, cp.CP(), scaled.CP(), wantCP, wantScaled)
	}
}

// randStream builds a stream whose memory accesses are unaligned,
// span several words, collide in a small address range and include
// the second load of a fused load pair, with every latency group.
func randStream(seed int64, n int) []isa.Event {
	r := rand.New(rand.NewSource(seed))
	reg := func() isa.Reg { return isa.Reg(r.Intn(12)) }
	access := func() (uint64, uint8) { return 0x8000 + uint64(r.Intn(300)), uint8(1 + r.Intn(40)) }
	evs := make([]isa.Event, n)
	for i := range evs {
		ev := &evs[i]
		ev.Group = isa.Group(r.Intn(int(isa.NumGroups)))
		for s := r.Intn(5); s > 0; s-- {
			ev.AddSrc(reg())
		}
		for d := r.Intn(3); d > 0; d-- {
			ev.AddDst(reg())
		}
		switch r.Intn(6) {
		case 0:
			ev.LoadAddr, ev.LoadSize = access()
		case 1:
			ev.LoadAddr, ev.LoadSize = access()
			ev.Load2Addr, ev.Load2Size = access()
		case 2, 3:
			ev.StoreAddr, ev.StoreSize = access()
		}
	}
	return evs
}

// TestOracleRandomStreams diffs the optimised analyses against the
// reference on seeded random streams long enough to cross several
// shard chunks, with the paper's stride and explicit ones.
func TestOracleRandomStreams(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		evs := randStream(seed, 2*shardChunk+2500)
		checkOracle(t, "random", evs, PaperWindowSizes(), 0)
		checkOracle(t, "random", evs[:777], []int{1, 3, 4, 16, 64}, int(seed))
	}
}

// collector keeps a copy of every event it receives.
type collector struct{ evs []isa.Event }

func (c *collector) Event(ev *isa.Event) { c.evs = append(c.evs, *ev) }

// TestOracleTinyWorkloads diffs the optimised analyses against the
// reference on every tiny-scale paper workload and target, on the
// raw stream and on the macro-op-fused one.
func TestOracleTinyWorkloads(t *testing.T) {
	both, err := fusion.ParseSpec("both")
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range workloads.Suite(workloads.Tiny) {
		for _, tgt := range cc.Targets() {
			compiled, err := cc.Compile(prog, tgt)
			if err != nil {
				t.Fatal(err)
			}
			for _, fuse := range []bool{false, true} {
				m := mem.New(cc.TextBase, compiled.MemSize)
				var mach simeng.Machine
				if tgt.Arch == isa.AArch64 {
					mach, err = a64.NewMachine(compiled.File, m)
				} else {
					mach, err = rv64.NewMachine(compiled.File, m)
				}
				if err != nil {
					t.Fatal(err)
				}
				var c collector
				var sink isa.Sink = &c
				name := prog.Name + "/" + tgt.String()
				var pass *fusion.Pass
				if fuse {
					pass = fusion.NewPass(both, tgt.Arch, &c)
					sink, name = pass, name+"/fused"
				}
				if _, err := (&simeng.EmulationCore{}).Run(mach, sink); err != nil {
					t.Fatal(err)
				}
				if pass != nil {
					pass.Flush()
				}
				checkOracle(t, name, c.evs, PaperWindowSizes(), 0)
			}
		}
	}
}

// FuzzWindowedCP decodes bytes into an event stream and checks that
// the sequential and sharded windowed analyses both match the
// reference. The first byte picks the stride; each event is a flags
// byte (bits 0-2 sources, 3-4 destinations, 5 load, 6 second load, 7
// store), its register bytes, then an offset and a size byte per
// access. Offsets fall in one 512-byte range, so words collide, and
// sizes reach 255 bytes, so a fused load pair can have four register
// and dozens of memory producers.
func FuzzWindowedCP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0xff, 1, 2, 3, 4, 5, 6, 0, 0xff, 7, 0xff, 9, 0xff, 0xe2, 1, 2, 0x10, 0xf0, 0x33, 0x80, 0x11, 0x40})
	// Five-deep chain stored to one word, then nine shallow stores and
	// four shallow register writes: the final fused load pair has
	// fourteen distinct producers, and its deepest is the last found.
	seed := []byte{0}
	for i := 0; i < 5; i++ {
		seed = append(seed, 0x09, 1, 1)
	}
	seed = append(seed, 0x81, 1, 0xf8, 8)
	for off := byte(0); off <= 0x40; off += 8 {
		seed = append(seed, 0x80, off, 8)
	}
	for r := byte(2); r <= 5; r++ {
		seed = append(seed, 0x08, r)
	}
	f.Add(append(seed, 0x6c, 2, 3, 4, 5, 6, 0, 72, 0xf8, 8))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		stride, data := int(data[0]%4), data[1:]
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		access := func() (uint64, uint8, bool) {
			off, ok1 := next()
			size, ok2 := next()
			return 0x1000 + uint64(off), max(size, 1), ok1 && ok2
		}
		var evs []isa.Event
		for {
			flags, ok := next()
			if !ok {
				break
			}
			var ev isa.Event
			for i := 0; i < min(int(flags&7), 4); i++ {
				r, _ := next()
				ev.AddSrc(isa.Reg(r % isa.NumRegs))
			}
			for i := 0; i < min(int(flags>>3&3), 2); i++ {
				r, _ := next()
				ev.AddDst(isa.Reg(r % isa.NumRegs))
			}
			if flags&0x20 != 0 {
				ev.LoadAddr, ev.LoadSize, ok = access()
			}
			if flags&0x40 != 0 {
				ev.Load2Addr, ev.Load2Size, ok = access()
			}
			if flags&0x80 != 0 {
				ev.StoreAddr, ev.StoreSize, ok = access()
			}
			if !ok {
				break
			}
			evs = append(evs, ev)
		}
		sizes := []int{1, 2, 3, 4, 7, 16, 64}
		want := refWindows(evs, sizes, stride)
		seq := NewWindowedCritPathStride(sizes, stride)
		seq.Events(evs)
		sharded := NewShardedWindowedCP(sizes, stride, 2)
		sharded.Events(evs)
		for i, got := range seq.Results() {
			if shard := sharded.Results()[i]; got != want[i] || shard != want[i] {
				t.Fatalf("size %d: sequential %+v, sharded %+v, reference %+v", sizes[i], got, shard, want[i])
			}
		}
	})
}
