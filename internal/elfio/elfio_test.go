package elfio

import (
	"bytes"
	"debug/elf"
	"testing"
	"testing/quick"
)

func sampleFile() *File {
	return &File{
		Machine: EMRiscV,
		Entry:   0x10000,
		Segments: []Segment{
			{Vaddr: 0x10000, Data: []byte{0x13, 0, 0, 0, 0x73, 0, 0, 0}, Flags: PFR | PFX, Name: ".text"},
			{Vaddr: 0x20000, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, Flags: PFR | PFW, Name: ".data"},
		},
		Symbols: []Symbol{
			{Name: "main", Value: 0x10000, Size: 8},
			{Name: "copy_kernel", Value: 0x10004, Size: 4},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	img := f.Write()
	got, err := Read(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != f.Machine || got.Entry != f.Entry {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Segments) != 2 {
		t.Fatalf("got %d segments", len(got.Segments))
	}
	for i, s := range got.Segments {
		if s.Vaddr != f.Segments[i].Vaddr || !bytes.Equal(s.Data, f.Segments[i].Data) || s.Flags != f.Segments[i].Flags ||
			s.Name != f.Segments[i].Name {
			t.Errorf("segment %d mismatch: %+v", i, s)
		}
	}
	if again := got.Write(); !bytes.Equal(again, img) {
		t.Error("image read back writes different bytes")
	}
	if len(got.Symbols) != 2 {
		t.Fatalf("got %d symbols: %+v", len(got.Symbols), got.Symbols)
	}
	// Read sorts by value.
	if got.Symbols[0].Name != "main" || got.Symbols[1].Name != "copy_kernel" {
		t.Errorf("symbols: %+v", got.Symbols)
	}
	if got.Symbols[1].Value != 0x10004 || got.Symbols[1].Size != 4 {
		t.Errorf("symbol value/size: %+v", got.Symbols[1])
	}
}

// TestAgainstStdlib parses our writer's output with the standard
// library's debug/elf as an independent conformance check.
func TestAgainstStdlib(t *testing.T) {
	f := sampleFile()
	img := f.Write()
	ef, err := elf.NewFile(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("debug/elf rejected image: %v", err)
	}
	defer ef.Close()
	if ef.Machine != elf.EM_RISCV {
		t.Errorf("machine = %v", ef.Machine)
	}
	if ef.Entry != 0x10000 {
		t.Errorf("entry = %#x", ef.Entry)
	}
	if ef.Type != elf.ET_EXEC {
		t.Errorf("type = %v", ef.Type)
	}
	var loads int
	for _, p := range ef.Progs {
		if p.Type == elf.PT_LOAD {
			loads++
			buf := make([]byte, p.Filesz)
			if _, err := p.ReadAt(buf, 0); err != nil {
				t.Fatalf("reading segment: %v", err)
			}
		}
	}
	if loads != 2 {
		t.Errorf("PT_LOAD count = %d", loads)
	}
	syms, err := ef.Symbols()
	if err != nil {
		t.Fatalf("stdlib symbol parse: %v", err)
	}
	names := map[string]uint64{}
	for _, s := range syms {
		names[s.Name] = s.Value
	}
	if names["main"] != 0x10000 || names["copy_kernel"] != 0x10004 {
		t.Errorf("stdlib symbols: %v", names)
	}
	txt := ef.Section(".text")
	if txt == nil {
		t.Fatal("no .text section visible to stdlib")
	}
	data, err := txt.Data()
	if err != nil || !bytes.Equal(data, []byte{0x13, 0, 0, 0, 0x73, 0, 0, 0}) {
		t.Errorf(".text data = %x, err %v", data, err)
	}
}

func TestRejectGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not an elf"),
		make([]byte, 3),
		append([]byte("\x7fELF"), make([]byte, 10)...),
	}
	for i, c := range cases {
		if _, err := Read(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Wrong class.
	img := sampleFile().Write()
	img[4] = 1 // ELFCLASS32
	if _, err := Read(img); err == nil {
		t.Error("32-bit image accepted")
	}
}

func TestTruncatedImage(t *testing.T) {
	img := sampleFile().Write()
	for _, cut := range []int{65, 100, len(img) / 2} {
		if cut >= len(img) {
			continue
		}
		if _, err := Read(img[:cut]); err == nil {
			t.Errorf("truncated image at %d bytes accepted", cut)
		}
	}
}

func TestQuickSegmentRoundTrip(t *testing.T) {
	f := func(data []byte, vaddr uint32, entryOff uint8) bool {
		file := &File{
			Machine: EMAarch64,
			Entry:   uint64(vaddr) + uint64(entryOff),
			Segments: []Segment{
				{Vaddr: uint64(vaddr), Data: data, Flags: PFR | PFX, Name: ".text"},
			},
		}
		got, err := Read(file.Write())
		if err != nil {
			return false
		}
		return got.Entry == file.Entry &&
			len(got.Segments) == 1 &&
			got.Segments[0].Vaddr == uint64(vaddr) &&
			bytes.Equal(got.Segments[0].Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptySymtab(t *testing.T) {
	f := &File{
		Machine:  EMAarch64,
		Entry:    0x1000,
		Segments: []Segment{{Vaddr: 0x1000, Data: []byte{1, 2, 3, 4}, Flags: PFR | PFX, Name: ".text"}},
	}
	got, err := Read(f.Write())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Symbols) != 0 {
		t.Fatalf("expected no symbols, got %+v", got.Symbols)
	}
}
