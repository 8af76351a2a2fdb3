package elfio

import (
	"encoding/binary"
	"testing"
)

// corrupt returns a fresh copy of the sample image with an 8-byte
// little-endian value patched in at off.
func corrupt(t *testing.T, img []byte, off int, v uint64) []byte {
	t.Helper()
	if off+8 > len(img) {
		t.Fatalf("patch offset %d past image end %d", off, len(img))
	}
	out := append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// phdrOff returns the file offset of program header i.
func phdrOff(img []byte, i int) int {
	return int(binary.LittleEndian.Uint64(img[32:])) + i*phentsize
}

// symtabShdrOff returns the file offset of the SHT_SYMTAB section
// header, or -1 if the image has none.
func symtabShdrOff(img []byte) int {
	le := binary.LittleEndian
	shoff := int(le.Uint64(img[40:]))
	shnum := int(le.Uint16(img[60:]))
	for i := 0; i < shnum; i++ {
		p := shoff + i*shentsize
		if le.Uint32(img[p+4:]) == 2 {
			return p
		}
	}
	return -1
}

// TestRejectWrappingOffsets patches in 64-bit offsets and sizes chosen
// so that the naive off+size bounds check wraps around zero. Each must
// be rejected with an error, not accepted or panicked on.
func TestRejectWrappingOffsets(t *testing.T) {
	img := sampleFile().Write()
	sym := symtabShdrOff(img)
	if sym < 0 {
		t.Fatal("sample image has no symtab section header")
	}
	const wrap = ^uint64(0) - 16
	cases := []struct {
		name string
		off  int
		v    uint64
	}{
		{"phoff wraps", 32, wrap},
		{"shoff wraps", 40, wrap},
		{"phoff past end", 32, uint64(len(img)) + 1},
		{"segment offset wraps", phdrOff(img, 0) + 8, wrap},
		{"segment filesz huge", phdrOff(img, 0) + 32, ^uint64(0)},
		{"segment filesz past end", phdrOff(img, 0) + 32, uint64(len(img))},
		{"symtab offset wraps", sym + 24, wrap},
		{"symtab size huge", sym + 32, ^uint64(0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := corrupt(t, img, c.off, c.v)
			if _, err := Read(bad); err == nil {
				t.Fatalf("malformed image accepted (patched %#x at %d)", c.v, c.off)
			}
		})
	}
}

// TestRejectBadSymtabLink sets the symtab's string-table link past the
// section header table.
func TestRejectBadSymtabLink(t *testing.T) {
	img := sampleFile().Write()
	sym := symtabShdrOff(img)
	if sym < 0 {
		t.Fatal("sample image has no symtab section header")
	}
	bad := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(bad[sym+40:], 0xffff)
	if _, err := Read(bad); err == nil {
		t.Fatal("out-of-range symtab link accepted")
	}
}

// TestTruncatedNameTable points the section name table, and then the
// header index that selects it, out of range: the image still reads,
// with unnamed segments.
func TestTruncatedNameTable(t *testing.T) {
	img := sampleFile().Write()
	le := binary.LittleEndian
	shstr := int(le.Uint64(img[40:])) + int(le.Uint16(img[62:]))*shentsize
	for _, bad := range [][]byte{
		corrupt(t, img, shstr+24, ^uint64(0)-16),
		corrupt(t, img, shstr+32, uint64(len(img))),
		append(append([]byte(nil), img[:62]...), append([]byte{0xff, 0xff}, img[64:]...)...),
	} {
		f, err := Read(bad)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range f.Segments {
			if s.Name != "" {
				t.Errorf("segment %d named %q through a name table out of range", i, s.Name)
			}
		}
	}
}

// TestRejectOverlappingSegments rewrites the second load segment's
// vaddr so its range collides with the first.
func TestRejectOverlappingSegments(t *testing.T) {
	img := sampleFile().Write()
	// Segment 0 covers [0x10000, 0x10008); move segment 1 into it.
	bad := corrupt(t, img, phdrOff(img, 1)+16, 0x10004)
	if _, err := Read(bad); err == nil {
		t.Fatal("overlapping load segments accepted")
	}
	// Exactly adjacent segments must still parse.
	ok := corrupt(t, img, phdrOff(img, 1)+16, 0x10008)
	if _, err := Read(ok); err != nil {
		t.Fatalf("adjacent segments rejected: %v", err)
	}
}

// TestRejectAddressSpaceWrap gives a segment a vaddr+size range that
// wraps the 64-bit address space.
func TestRejectAddressSpaceWrap(t *testing.T) {
	img := sampleFile().Write()
	bad := corrupt(t, img, phdrOff(img, 0)+16, ^uint64(0)-2)
	if _, err := Read(bad); err == nil {
		t.Fatal("address-space-wrapping segment accepted")
	}
}

// TestTruncatedHeaderTables cuts the image just inside each table so
// the table itself is truncated (rather than absent).
func TestTruncatedHeaderTables(t *testing.T) {
	img := sampleFile().Write()
	le := binary.LittleEndian
	phoff := int(le.Uint64(img[32:]))
	shoff := int(le.Uint64(img[40:]))
	for _, cut := range []int{phoff + phentsize/2, shoff + shentsize/2} {
		if cut >= len(img) {
			continue
		}
		if _, err := Read(img[:cut]); err == nil {
			t.Errorf("image truncated at %d accepted", cut)
		}
	}
}
