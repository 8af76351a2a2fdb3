// Package elfio implements the minimal subset of ELF64 the simulated
// toolchain emits. The assembler builds a File (loadable segments, an
// entry point, a symbol table), the machines map that File into
// simulated memory directly, and Write serialises it as a real
// statically linked executable: the image golden and the durable
// cache key hash those bytes. Only what a static freestanding binary
// needs is supported: ET_EXEC files with PT_LOAD segments and a
// .symtab used for kernel-region attribution in the path-length
// analysis.
package elfio

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// ELF machine numbers for the two architectures under study.
const (
	EMAarch64 uint16 = 183 // EM_AARCH64
	EMRiscV   uint16 = 243 // EM_RISCV
)

// Segment is a loadable program segment.
type Segment struct {
	// Vaddr is the virtual load address.
	Vaddr uint64
	// Data is the segment image.
	Data []byte
	// Flags is the PF_* permission mask (PF_X=1, PF_W=2, PF_R=4).
	Flags uint32
	// Name is the section name used for the matching section header
	// (".text", ".data").
	Name string
}

// Segment permission flags.
const (
	PFX = 1
	PFW = 2
	PFR = 4
)

// Symbol is a named address range; the analyses use symbols to
// attribute dynamic instructions to source kernels.
type Symbol struct {
	Name  string
	Value uint64
	Size  uint64
}

// File is an in-memory representation of a minimal static executable.
type File struct {
	Machine  uint16
	Entry    uint64
	Segments []Segment
	Symbols  []Symbol
}

// Text returns the file's one executable segment.
func (f *File) Text() (*Segment, error) {
	var text *Segment
	for i := range f.Segments {
		if f.Segments[i].Flags&PFX != 0 {
			if text != nil {
				return nil, fmt.Errorf("multiple executable segments")
			}
			text = &f.Segments[i]
		}
	}
	if text == nil {
		return nil, fmt.Errorf("no executable segment")
	}
	return text, nil
}

// Words returns the segment's data as little-endian 32-bit words; a
// trailing partial word is dropped.
func (s *Segment) Words() []uint32 {
	words := make([]uint32, len(s.Data)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(s.Data[4*i:])
	}
	return words
}

const (
	ehsize    = 64
	phentsize = 56
	shentsize = 64
	symsize   = 24
)

// Write serialises the file as a valid ELF64 little-endian ET_EXEC
// image.
func (f *File) Write() []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian

	nseg := len(f.Segments)
	// Sections: null, one per segment, .symtab, .strtab, .shstrtab.
	nsec := 1 + nseg + 3

	// File layout: ehdr, phdrs, segment data..., symtab, strtab,
	// shstrtab, shdrs.
	off := uint64(ehsize + nseg*phentsize)
	segOff := make([]uint64, nseg)
	for i, s := range f.Segments {
		// Keep file offset congruent with vaddr modulo a small page so
		// strict loaders stay happy; our own loader doesn't care.
		off = align(off, 8)
		segOff[i] = off
		off += uint64(len(s.Data))
	}

	symtabOff := align(off, 8)
	nsyms := len(f.Symbols) + 1 // leading null symbol
	symtabSize := uint64(nsyms * symsize)

	// String table for symbol names.
	var strtab bytes.Buffer
	strtab.WriteByte(0)
	symNameOff := make([]uint32, len(f.Symbols))
	for i, s := range f.Symbols {
		symNameOff[i] = uint32(strtab.Len())
		strtab.WriteString(s.Name)
		strtab.WriteByte(0)
	}
	strtabOff := symtabOff + symtabSize

	// Section-header string table.
	var shstr bytes.Buffer
	shstr.WriteByte(0)
	shname := func(n string) uint32 {
		o := uint32(shstr.Len())
		shstr.WriteString(n)
		shstr.WriteByte(0)
		return o
	}
	segShName := make([]uint32, nseg)
	for i, s := range f.Segments {
		segShName[i] = shname(s.Name)
	}
	symtabName := shname(".symtab")
	strtabName := shname(".strtab")
	shstrName := shname(".shstrtab")

	shstrOff := strtabOff + uint64(strtab.Len())
	shoff := align(shstrOff+uint64(shstr.Len()), 8)

	// ELF header.
	var eh [ehsize]byte
	copy(eh[:], "\x7fELF")
	eh[4] = 2                // ELFCLASS64
	eh[5] = 1                // ELFDATA2LSB
	eh[6] = 1                // EV_CURRENT
	le.PutUint16(eh[16:], 2) // ET_EXEC
	le.PutUint16(eh[18:], f.Machine)
	le.PutUint32(eh[20:], 1) // version
	le.PutUint64(eh[24:], f.Entry)
	le.PutUint64(eh[32:], ehsize) // phoff
	le.PutUint64(eh[40:], shoff)
	le.PutUint16(eh[52:], ehsize)
	le.PutUint16(eh[54:], phentsize)
	le.PutUint16(eh[56:], uint16(nseg))
	le.PutUint16(eh[58:], shentsize)
	le.PutUint16(eh[60:], uint16(nsec))
	le.PutUint16(eh[62:], uint16(nsec-1)) // shstrndx: last section
	buf.Write(eh[:])

	// Program headers.
	for i, s := range f.Segments {
		var ph [phentsize]byte
		le.PutUint32(ph[0:], 1) // PT_LOAD
		le.PutUint32(ph[4:], s.Flags)
		le.PutUint64(ph[8:], segOff[i])
		le.PutUint64(ph[16:], s.Vaddr)
		le.PutUint64(ph[24:], s.Vaddr)
		le.PutUint64(ph[32:], uint64(len(s.Data)))
		le.PutUint64(ph[40:], uint64(len(s.Data)))
		le.PutUint64(ph[48:], 8) // align
		buf.Write(ph[:])
	}

	// Segment data.
	for i, s := range f.Segments {
		pad(&buf, segOff[i])
		buf.Write(s.Data)
	}

	// Symbol table. First entry is the mandatory null symbol.
	pad(&buf, symtabOff)
	buf.Write(make([]byte, symsize))
	for i, s := range f.Symbols {
		var sym [symsize]byte
		le.PutUint32(sym[0:], symNameOff[i])
		sym[4] = (1 << 4) | 2 // STB_GLOBAL, STT_FUNC
		le.PutUint16(sym[6:], 1)
		le.PutUint64(sym[8:], s.Value)
		le.PutUint64(sym[16:], s.Size)
		buf.Write(sym[:])
	}

	buf.Write(strtab.Bytes())
	buf.Write(shstr.Bytes())

	// Section headers.
	pad(&buf, shoff)
	writeShdr := func(name uint32, typ uint32, flags, addr, off, size uint64, link uint32, entsize uint64) {
		var sh [shentsize]byte
		le.PutUint32(sh[0:], name)
		le.PutUint32(sh[4:], typ)
		le.PutUint64(sh[8:], flags)
		le.PutUint64(sh[16:], addr)
		le.PutUint64(sh[24:], off)
		le.PutUint64(sh[32:], size)
		le.PutUint32(sh[40:], link)
		le.PutUint64(sh[48:], 8)
		le.PutUint64(sh[56:], entsize)
		buf.Write(sh[:])
	}
	writeShdr(0, 0, 0, 0, 0, 0, 0, 0) // null section
	for i, s := range f.Segments {
		var flags uint64 = 0x2 // SHF_ALLOC
		if s.Flags&PFX != 0 {
			flags |= 0x4 // SHF_EXECINSTR
		}
		if s.Flags&PFW != 0 {
			flags |= 0x1 // SHF_WRITE
		}
		writeShdr(segShName[i], 1 /*SHT_PROGBITS*/, flags, s.Vaddr, segOff[i], uint64(len(s.Data)), 0, 0)
	}
	strtabIdx := uint32(1 + nseg + 1)
	writeShdr(symtabName, 2 /*SHT_SYMTAB*/, 0, 0, symtabOff, symtabSize, strtabIdx, symsize)
	writeShdr(strtabName, 3 /*SHT_STRTAB*/, 0, 0, strtabOff, uint64(strtab.Len()), 0, 0)
	writeShdr(shstrName, 3 /*SHT_STRTAB*/, 0, 0, shstrOff, uint64(shstr.Len()), 0, 0)

	return buf.Bytes()
}

func align(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

func pad(buf *bytes.Buffer, to uint64) {
	for uint64(buf.Len()) < to {
		buf.WriteByte(0)
	}
}
