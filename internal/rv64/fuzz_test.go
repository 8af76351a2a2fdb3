package rv64

import (
	"testing"

	"isacmp/internal/isa"
)

// FuzzDecodeRV64 throws arbitrary 32-bit words at the predecoder. The
// invariants: Decode and the template build never panic, a decodable
// word's template agrees with its operation, and when a decoded
// instruction re-encodes, decoding the re-encoded word reproduces the
// same Inst.
func FuzzDecodeRV64(f *testing.F) {
	seeds := []uint32{
		0x00000013, // addi x0, x0, 0 (canonical nop)
		0x00000073, // ecall
		0x00008067, // jalr x0, 0(x1) (ret)
		0x0000006F, // jal x0, .
		0x00B50533, // add a0, a0, a1
		0x0005B503, // ld a0, 0(a1)
		0x00A5B023, // sd a0, 0(a1)
		MustEncode(Inst{Op: LUI, Rd: 5, Imm: 0x12345 << 12}),
		0xFFFFFFFF, 0x00000000, 0x0000100F,
	}
	for _, w := range seeds {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w uint32) {
		// Predecode builds a template for every text word, data
		// islands included, so it must not panic on any word, and a
		// decodable word's template must agree with its operation.
		var tmpl isa.Event
		inst, err := predecode(w, &tmpl)
		if err != nil {
			return
		}
		checkTemplate(t, w, &tmpl, OpGroup(inst.Op))
		w2, err := Encode(inst)
		if err != nil {
			// Decodable forms without a canonical re-encoding (e.g.
			// fence operand sets) are not fuzz failures.
			return
		}
		inst2, err := Decode(w2)
		if err != nil {
			t.Fatalf("re-encoded word %#08x of %#08x does not decode: %v", w2, w, err)
		}
		if inst2 != inst {
			t.Fatalf("decode(%#08x) = %+v but decode(encode) = %+v", w, inst, inst2)
		}
	})
}

// checkTemplate checks a template against its operation's latency
// group: the group is the operation's, exactly the branch group is a
// branch, exactly the load group reads memory, and every listed
// register is in the flat register space.
func checkTemplate(t *testing.T, w uint32, tmpl *isa.Event, g isa.Group) {
	t.Helper()
	if tmpl.Group != g {
		t.Fatalf("%#08x: template group %v, operation group %v", w, tmpl.Group, g)
	}
	if tmpl.Branch != (g == isa.GroupBranch) || (tmpl.LoadSize != 0) != (g == isa.GroupLoad) {
		t.Fatalf("%#08x: %v template has branch %t, load size %d", w, g, tmpl.Branch, tmpl.LoadSize)
	}
	for _, r := range append(tmpl.Srcs[:tmpl.NSrcs:tmpl.NSrcs], tmpl.Dsts[:tmpl.NDsts]...) {
		if r >= isa.NumRegs {
			t.Fatalf("%#08x: template lists register %v", w, r)
		}
	}
}
