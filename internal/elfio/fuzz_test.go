package elfio

import (
	"bytes"
	"testing"
)

// FuzzELF throws arbitrary bytes at the ELF reader. The invariants:
// Read never panics whatever the input, and an image Read accepts
// survives a Write/Read round trip with identical segments, names
// included.
func FuzzELF(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("\x7fELF"))
	f.Add(sampleFile().Write())
	f.Add((&File{
		Machine:  EMAarch64,
		Entry:    0x1000,
		Segments: []Segment{{Vaddr: 0x1000, Data: []byte{1, 2, 3, 4}, Flags: PFR | PFX, Name: ".text"}},
	}).Write())
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := Read(b)
		if err != nil {
			return
		}
		again, err := Read(file.Write())
		if err != nil {
			t.Fatalf("accepted image fails round trip: %v", err)
		}
		if len(again.Segments) != len(file.Segments) {
			t.Fatalf("round trip changed segment count: %d != %d", len(again.Segments), len(file.Segments))
		}
		for i := range file.Segments {
			if again.Segments[i].Vaddr != file.Segments[i].Vaddr ||
				!bytes.Equal(again.Segments[i].Data, file.Segments[i].Data) ||
				again.Segments[i].Name != file.Segments[i].Name {
				t.Fatalf("round trip changed segment %d", i)
			}
		}
	})
}
