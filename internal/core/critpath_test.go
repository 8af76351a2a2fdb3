package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"isacmp/internal/isa"
	"isacmp/internal/simeng"
)

// evAdd builds an event for "rd = rs1 + rs2"-shaped instructions.
func evAdd(rd isa.Reg, srcs ...isa.Reg) *isa.Event {
	ev := &isa.Event{Group: isa.GroupIntSimple}
	for _, s := range srcs {
		ev.AddSrc(s)
	}
	ev.AddDst(rd)
	return ev
}

func evLoad(rd isa.Reg, addrReg isa.Reg, addr uint64) *isa.Event {
	ev := &isa.Event{Group: isa.GroupLoad, LoadAddr: addr, LoadSize: 8}
	ev.AddSrc(addrReg)
	ev.AddDst(rd)
	return ev
}

func evStore(val isa.Reg, addrReg isa.Reg, addr uint64) *isa.Event {
	ev := &isa.Event{Group: isa.GroupStore, StoreAddr: addr, StoreSize: 8}
	ev.AddSrc(addrReg)
	ev.AddSrc(val)
	return ev
}

func TestSerialChain(t *testing.T) {
	c := NewCritPath()
	// x1 = x1 + 1, N times: a chain of length N.
	const n = 100
	for i := 0; i < n; i++ {
		c.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	if c.CP() != n {
		t.Fatalf("CP = %d, want %d", c.CP(), n)
	}
	if c.ILP() != 1 {
		t.Fatalf("ILP = %v, want 1", c.ILP())
	}
}

func TestIndependentInstructions(t *testing.T) {
	c := NewCritPath()
	const n = 64
	for i := 0; i < n; i++ {
		c.Event(evAdd(isa.IntReg(uint8(i%28)+1), isa.IntReg(0))) // no real src: x0 excluded at source
	}
	// Every instruction writes a fresh chain of length 1... except each
	// register is rewritten; chains never extend because sources are
	// empty.
	if c.CP() != 1 {
		t.Fatalf("CP = %d, want 1", c.CP())
	}
	if c.ILP() != float64(n) {
		t.Fatalf("ILP = %v, want %d", c.ILP(), n)
	}
}

func TestChainThroughMemory(t *testing.T) {
	c := NewCritPath()
	// x1 = x1+1 ; store x1 -> A ; load A -> x2 ; x3 = x2+1
	c.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))          // CP 1
	c.Event(evStore(isa.IntReg(1), isa.IntReg(5), 0x100)) // CP 2 via x1
	c.Event(evLoad(isa.IntReg(2), isa.IntReg(6), 0x100))  // CP 3 via mem
	c.Event(evAdd(isa.IntReg(3), isa.IntReg(2)))          // CP 4
	if c.CP() != 4 {
		t.Fatalf("CP = %d, want 4", c.CP())
	}
}

func TestMemoryOverlapGranularity(t *testing.T) {
	c := NewCritPath()
	// A 16-byte store followed by a load of its second word must chain.
	ev := &isa.Event{Group: isa.GroupStore, StoreAddr: 0x100, StoreSize: 16}
	ev.AddSrc(isa.IntReg(1))
	c.Event(ev)
	c.Event(evLoad(isa.IntReg(2), isa.IntReg(5), 0x108))
	if c.CP() != 2 {
		t.Fatalf("CP = %d, want 2 (pair store must cover both words)", c.CP())
	}
}

func TestZeroRegisterBreaksChain(t *testing.T) {
	// Events never include the zero register, so a mov-from-zero
	// starts a fresh chain: emulate x1 = x1+1 chains interleaved with a
	// chain restart.
	c := NewCritPath()
	for i := 0; i < 10; i++ {
		c.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	c.Event(evAdd(isa.IntReg(1))) // x1 = 0 (no sources): chain restarts
	for i := 0; i < 5; i++ {
		c.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	}
	if c.CP() != 10 {
		t.Fatalf("CP = %d, want 10 (restart must not extend)", c.CP())
	}
}

func TestScaledWeights(t *testing.T) {
	lat := simeng.TX2Latencies()
	c := NewScaledCritPath(lat)
	// Chain of 3 FP adds: CP = 3 * 6.
	for i := 0; i < 3; i++ {
		ev := &isa.Event{Group: isa.GroupFPAdd}
		ev.AddSrc(isa.FPReg(1))
		ev.AddDst(isa.FPReg(1))
		c.Event(ev)
	}
	want := uint64(3) * uint64(lat.Latency(isa.GroupFPAdd))
	if c.CP() != want {
		t.Fatalf("scaled CP = %d, want %d", c.CP(), want)
	}
}

func TestScaledLoadsStoresUnscaled(t *testing.T) {
	c := NewScaledCritPath(simeng.TX2Latencies())
	// load -> store -> load chain through memory: weight 1 each.
	c.Event(evLoad(isa.IntReg(1), isa.IntReg(5), 0x100))
	c.Event(evStore(isa.IntReg(1), isa.IntReg(5), 0x108))
	c.Event(evLoad(isa.IntReg(2), isa.IntReg(5), 0x108))
	if c.CP() != 3 {
		t.Fatalf("scaled CP = %d, want 3 (loads/stores weigh 1)", c.CP())
	}
}

func TestNZCVChains(t *testing.T) {
	c := NewCritPath()
	// add x1 -> cmp (writes NZCV from x1) -> b.ne (reads NZCV).
	c.Event(evAdd(isa.IntReg(1), isa.IntReg(1)))
	cmp := &isa.Event{Group: isa.GroupIntSimple}
	cmp.AddSrc(isa.IntReg(1))
	cmp.AddDst(isa.RegNZCV)
	c.Event(cmp)
	br := &isa.Event{Group: isa.GroupBranch, Branch: true}
	br.AddSrc(isa.RegNZCV)
	c.Event(br)
	// The branch extends the chain through the flags: 1 -> 2 -> 3.
	if c.CP() != 3 {
		t.Fatalf("CP through NZCV = %d, want 3", c.CP())
	}
}

// Property: CP never exceeds the weighted instruction count, and is
// monotonically non-decreasing.
func TestCPBoundsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCritPath()
		prev := uint64(0)
		for i := 0; i < int(n); i++ {
			ev := &isa.Event{Group: isa.GroupIntSimple}
			for s := 0; s < r.Intn(3); s++ {
				ev.AddSrc(isa.IntReg(uint8(r.Intn(31) + 1)))
			}
			ev.AddDst(isa.IntReg(uint8(r.Intn(31) + 1)))
			if r.Intn(4) == 0 {
				ev.LoadAddr, ev.LoadSize = uint64(r.Intn(64))*8, 8
			}
			if r.Intn(4) == 0 {
				ev.StoreAddr, ev.StoreSize = uint64(r.Intn(64))*8, 8
			}
			c.Event(ev)
			if c.CP() < prev {
				return false // must be monotone
			}
			prev = c.CP()
		}
		return c.CP() <= c.Instructions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the ILP identity CP * ILP == instructions holds by
// construction.
func TestILPIdentity(t *testing.T) {
	c := NewCritPath()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		ev := &isa.Event{Group: isa.GroupIntSimple}
		ev.AddSrc(isa.IntReg(uint8(r.Intn(31) + 1)))
		ev.AddDst(isa.IntReg(uint8(r.Intn(31) + 1)))
		c.Event(ev)
	}
	if got := c.ILP() * float64(c.CP()); got != float64(c.Instructions()) {
		t.Fatalf("ILP*CP = %v, want %d", got, c.Instructions())
	}
}

// heavyLatencies is the TX2 model with simple integer work weighing 3,
// so a stream of simple-integer events has a scaled chain that differs
// from its unit chain.
func heavyLatencies() *simeng.LatencyModel {
	lat := simeng.TX2Latencies()
	lat[isa.GroupIntSimple] = 3
	return lat
}

// TestDenseRangeEquivalence: dense and map-backed tracking must give
// identical critical paths, one chain per tracker or both in one.
func TestDenseRangeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	lat := heavyLatencies()
	sparse, scaled := NewCritPath(), NewScaledCritPath(lat)
	dense, jointSparse, jointDense := NewCritPath(), NewJointCritPath(lat), NewJointCritPath(lat)
	dense.SetDenseRange(0x1000, 0x1000)
	jointDense.SetDenseRange(0x1000, 0x1000)
	for i := 0; i < 5000; i++ {
		ev := &isa.Event{Group: isa.GroupIntSimple}
		ev.AddSrc(isa.IntReg(uint8(r.Intn(8) + 1)))
		ev.AddDst(isa.IntReg(uint8(r.Intn(8) + 1)))
		switch r.Intn(3) {
		case 0:
			ev.LoadAddr, ev.LoadSize = 0x1000+uint64(r.Intn(0x100))*8, 8
		case 1:
			ev.StoreAddr, ev.StoreSize = 0x1000+uint64(r.Intn(0x100))*8, 8
		}
		// Some accesses fall outside the dense window.
		if r.Intn(8) == 0 {
			ev.LoadAddr, ev.LoadSize = 0x900000+uint64(r.Intn(16))*8, 8
		}
		for _, c := range []*CritPath{sparse, scaled, dense, jointSparse, jointDense} {
			c.Event(ev)
		}
	}
	if sparse.CP() != dense.CP() {
		t.Fatalf("sparse CP %d != dense CP %d", sparse.CP(), dense.CP())
	}
	if sparse.Instructions() != dense.Instructions() {
		t.Fatal("instruction counts differ")
	}
	for name, j := range map[string]*CritPath{"sparse": jointSparse, "dense": jointDense} {
		if j.CP() != sparse.CP() || j.ScaledCP() != scaled.CP() || j.Instructions() != sparse.Instructions() {
			t.Fatalf("%s joint CP %d / scaled %d, one-chain trackers %d / %d", name, j.CP(), j.ScaledCP(), sparse.CP(), scaled.CP())
		}
	}
}
