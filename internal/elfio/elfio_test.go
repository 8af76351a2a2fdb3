package elfio_test

import (
	"debug/elf"
	"testing"
	"testing/quick"

	"isacmp/internal/elfio"
	"isacmp/internal/elfio/elftest"
)

func sampleFile() *elfio.File {
	return &elfio.File{
		Machine: elfio.EMRiscV,
		Entry:   0x10000,
		Segments: []elfio.Segment{
			{Vaddr: 0x10000, Data: []byte{0x13, 0, 0, 0, 0x73, 0, 0, 0}, Flags: elfio.PFR | elfio.PFX, Name: ".text"},
			{Vaddr: 0x20000, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, Flags: elfio.PFR | elfio.PFW, Name: ".data"},
		},
		Symbols: []elfio.Symbol{
			{Name: "main", Value: 0x10000, Size: 8},
			{Name: "copy_kernel", Value: 0x10004, Size: 4},
		},
	}
}

// TestRoundTrip: the sample file's image, with a text and a data
// segment and two symbols, parses back to the file.
func TestRoundTrip(t *testing.T) {
	if err := elftest.Check(sampleFile()); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstStdlib: the package's machine numbers and segment flags
// are the standard library's, so an image names its ISA and
// permissions as every other ELF tool reads them.
func TestAgainstStdlib(t *testing.T) {
	if elf.Machine(elfio.EMAarch64) != elf.EM_AARCH64 || elf.Machine(elfio.EMRiscV) != elf.EM_RISCV {
		t.Errorf("machines %v, %v", elf.Machine(elfio.EMAarch64), elf.Machine(elfio.EMRiscV))
	}
	if elfio.PFX != elf.PF_X || elfio.PFW != elf.PF_W || elfio.PFR != elf.PF_R {
		t.Errorf("flags %v, %v, %v", elf.ProgFlag(elfio.PFX), elf.ProgFlag(elfio.PFW), elf.ProgFlag(elfio.PFR))
	}
}

func TestQuickSegmentRoundTrip(t *testing.T) {
	f := func(data []byte, vaddr uint32, entryOff uint8) bool {
		return elftest.Check(&elfio.File{
			Machine:  elfio.EMAarch64,
			Entry:    uint64(vaddr) + uint64(entryOff),
			Segments: []elfio.Segment{{Vaddr: uint64(vaddr), Data: data, Flags: elfio.PFR | elfio.PFX, Name: ".text"}},
		}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEmptySymtab: a file with no symbols writes an empty symbol
// table.
func TestEmptySymtab(t *testing.T) {
	f := &elfio.File{
		Machine:  elfio.EMAarch64,
		Entry:    0x1000,
		Segments: []elfio.Segment{{Vaddr: 0x1000, Data: []byte{1, 2, 3, 4}, Flags: elfio.PFR | elfio.PFX, Name: ".text"}},
	}
	if err := elftest.Check(f); err != nil {
		t.Fatal(err)
	}
}
