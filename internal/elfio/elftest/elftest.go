// Package elftest checks the image an elfio.File writes with the
// standard library's debug/elf, a parser independent of the writer.
// Only tests import it.
package elftest

import (
	"bytes"
	"debug/elf"
	"fmt"
	"io"

	"isacmp/internal/elfio"
)

// Check parses f.Write() with debug/elf and reports the first way the
// image differs from f. It must be a little-endian ELF64 ET_EXEC file
// with f's machine and entry point, whose PT_LOAD segments are f's
// segments in order (address, flags and bytes), each with a section of
// its name at its address holding its bytes, and whose symbols are
// f's in order (name, value and size).
func Check(f *elfio.File) error {
	ef, err := elf.NewFile(bytes.NewReader(f.Write()))
	if err != nil {
		return fmt.Errorf("elftest: %v", err)
	}
	if ef.Class != elf.ELFCLASS64 || ef.Data != elf.ELFDATA2LSB || ef.Type != elf.ET_EXEC {
		return fmt.Errorf("elftest: %v %v %v image, want ELFCLASS64 ELFDATA2LSB ET_EXEC", ef.Class, ef.Data, ef.Type)
	}
	if ef.Machine != elf.Machine(f.Machine) || ef.Entry != f.Entry {
		return fmt.Errorf("elftest: machine %v entry %#x, want %v entry %#x", ef.Machine, ef.Entry, elf.Machine(f.Machine), f.Entry)
	}
	var loads []*elf.Prog
	for _, p := range ef.Progs {
		if p.Type == elf.PT_LOAD {
			loads = append(loads, p)
		}
	}
	if len(loads) != len(f.Segments) {
		return fmt.Errorf("elftest: %d PT_LOAD segments, want %d", len(loads), len(f.Segments))
	}
	for i, s := range f.Segments {
		p := loads[i]
		data, err := io.ReadAll(p.Open())
		if err != nil {
			return fmt.Errorf("elftest: segment %d: %v", i, err)
		}
		if p.Vaddr != s.Vaddr || p.Flags != elf.ProgFlag(s.Flags) || !bytes.Equal(data, s.Data) {
			return fmt.Errorf("elftest: segment %d is %#x %v, %d bytes, want %#x %v, %d bytes",
				i, p.Vaddr, p.Flags, len(data), s.Vaddr, elf.ProgFlag(s.Flags), len(s.Data))
		}
		sec := ef.Section(s.Name)
		if sec == nil {
			return fmt.Errorf("elftest: no section %q for segment %d", s.Name, i)
		}
		if data, err = sec.Data(); err != nil {
			return fmt.Errorf("elftest: section %q: %v", s.Name, err)
		}
		if sec.Type != elf.SHT_PROGBITS || sec.Addr != s.Vaddr || !bytes.Equal(data, s.Data) {
			return fmt.Errorf("elftest: section %q is %v at %#x, %d bytes, want SHT_PROGBITS at %#x, %d bytes",
				s.Name, sec.Type, sec.Addr, len(data), s.Vaddr, len(s.Data))
		}
	}
	syms, err := ef.Symbols()
	if err != nil {
		return fmt.Errorf("elftest: symbols: %v", err)
	}
	if len(syms) != len(f.Symbols) {
		return fmt.Errorf("elftest: %d symbols, want %d", len(syms), len(f.Symbols))
	}
	for i, want := range f.Symbols {
		if got := syms[i]; got.Name != want.Name || got.Value != want.Value || got.Size != want.Size {
			return fmt.Errorf("elftest: symbol %d is %s %#x size %d, want %s %#x size %d",
				i, got.Name, got.Value, got.Size, want.Name, want.Value, want.Size)
		}
	}
	return nil
}
