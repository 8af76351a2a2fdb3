package a64

import (
	"testing"

	"isacmp/internal/isa"
)

// FuzzDecodeA64 throws arbitrary 32-bit words at the predecoder. The
// invariants: Decode and the template build never panic, a decodable
// word's template agrees with its operation, and when a decoded
// instruction re-encodes, decoding the re-encoded word reproduces the
// same Inst (decode∘encode is idempotent on the decodable subset).
func FuzzDecodeA64(f *testing.F) {
	seeds := []uint32{
		0xD503201F, // nop
		0xD65F03C0, // ret
		0xD4000001, // svc #0
		0x14000000, // b .
		0x91000420, // add x0, x1, #1
		0xF9400021, // ldr x1, [x1]
		0xA9BF7BFD, // stp x29, x30, [sp, #-16]!
		MustEncode(Inst{Op: MOVZ, Rd: 3, Sf: true, Imm: 0x1234}),
		0xFFFFFFFF, 0x00000000, 0x8B0A0149,
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
		checkTemplate(t, w, &tmpl, OpGroup(&inst))
		w2, err := Encode(inst)
		if err != nil {
			// Some decodable forms have no canonical encoding in the
			// supported subset; that is not a fuzz failure.
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
