package isa_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"isacmp/internal/a64"
	"isacmp/internal/elfio"
	"isacmp/internal/elfio/elftest"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/rv64"
)

// machine is what the shared layer gives both ISAs' machines.
type machine interface {
	Step(ev *isa.Event) (bool, error)
	PC() uint64
	Exited() bool
	ExitCode() int64
	Steps() uint64
}

// isaCase drives one ISA through the shared layer: syscall builds a
// program that makes the system call nr with arguments a0..a2, then
// exits with the call's result as its status; load builds its machine
// with stdout attached.
type isaCase struct {
	name    string
	em      uint16
	syscall func(nr, a0, a1, a2 int64, syms ...string) (*elfio.File, error)
	load    func(f *elfio.File, m *mem.Memory, stdout io.Writer) (machine, error)
}

var isaCases = []isaCase{
	{
		name: "a64",
		em:   elfio.EMAarch64,
		syscall: func(nr, a0, a1, a2 int64, syms ...string) (*elfio.File, error) {
			a := a64.NewAsm()
			for _, s := range syms {
				a.Symbol(s)
				a.NOP()
			}
			a.MOV64(0, a0)
			a.MOV64(1, a1)
			a.MOV64(2, a2)
			a.MOV64(8, nr)
			a.SVC()
			a.MOV64(8, 93)
			a.SVC()
			return a.Build(a64.Program{TextBase: 0x10000, DataBase: 0x20000, Data: []byte("hello")})
		},
		load: func(f *elfio.File, m *mem.Memory, stdout io.Writer) (machine, error) {
			mach, err := a64.NewMachine(f, m)
			if err != nil {
				return nil, err
			}
			mach.Stdout = stdout
			return mach, nil
		},
	},
	{
		name: "rv64",
		em:   elfio.EMRiscV,
		syscall: func(nr, a0, a1, a2 int64, syms ...string) (*elfio.File, error) {
			a := rv64.NewAsm()
			for _, s := range syms {
				a.Symbol(s)
				a.NOP()
			}
			a.LI(10, a0)
			a.LI(11, a1)
			a.LI(12, a2)
			a.LI(17, nr)
			a.ECALL()
			a.LI(17, 93)
			a.ECALL()
			return a.Build(rv64.Program{TextBase: 0x10000, DataBase: 0x20000, Data: []byte("hello")})
		},
		load: func(f *elfio.File, m *mem.Memory, stdout io.Writer) (machine, error) {
			mach, err := rv64.NewMachine(f, m)
			if err != nil {
				return nil, err
			}
			mach.Stdout = stdout
			return mach, nil
		},
	},
}

// run steps mach until it exits or faults.
func run(mach machine) error {
	var ev isa.Event
	for i := 0; i < 1000; i++ {
		done, err := mach.Step(&ev)
		if done || err != nil {
			return err
		}
	}
	return nil
}

// TestSharedMachineLayer pins, on both ISAs, the machine behaviour the
// ISA packages share: the checks NewMachine makes of an image, the
// exit, write and brk system calls, the fault of any other call, and
// the ELF image the assembler builds.
func TestSharedMachineLayer(t *testing.T) {
	const memSize = 1 << 20
	for i, c := range isaCases {
		other := isaCases[1-i]
		t.Run(c.name, func(t *testing.T) {
			f, err := c.syscall(64, 1, 0x20000, 5)
			if err != nil {
				t.Fatal(err)
			}

			// NewMachine checks the image before it runs anything.
			if _, err := other.load(f, mem.New(0x10000, memSize), io.Discard); err == nil ||
				!strings.HasPrefix(err.Error(), other.name+": ELF machine ") {
				t.Errorf("%s loaded a %s image: %v", other.name, c.name, err)
			}
			noText := *f
			noText.Segments = []elfio.Segment{f.Segments[1]}
			if _, err := c.load(&noText, mem.New(0x10000, memSize), io.Discard); err == nil ||
				err.Error() != c.name+": no executable segment" {
				t.Errorf("image without text: %v", err)
			}
			twoText := *f
			second := f.Segments[0]
			second.Vaddr = 0x30000
			twoText.Segments = append(append([]elfio.Segment(nil), f.Segments...), second)
			if _, err := c.load(&twoText, mem.New(0x10000, memSize), io.Discard); err == nil ||
				err.Error() != c.name+": multiple executable segments" {
				t.Errorf("image with two text segments: %v", err)
			}

			// write copies its bytes out and returns their count.
			var out bytes.Buffer
			m, err := c.load(f, mem.New(0x10000, memSize), &out)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(m); err != nil || !m.Exited() || m.ExitCode() != 5 || out.String() != "hello" {
				t.Errorf("write: err %v, exited %t, result %d, stdout %q", err, m.Exited(), m.ExitCode(), out.String())
			}
			if m.Steps() == 0 {
				t.Error("no retired instructions counted")
			}

			// brk 0 queries the break, which starts past the data
			// rounded up to 16 bytes; a request inside memory moves it,
			// one outside leaves it.
			for _, b := range []struct{ req, want int64 }{
				{0, 0x20010},
				{0x30000, 0x30000},
				{0x10000 + memSize, 0x20010},
			} {
				f, err := c.syscall(214, b.req, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				mm := mem.New(0x10000, memSize)
				m, err := c.load(f, mm, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if err := run(m); err != nil || m.ExitCode() != b.want || mm.Brk() != uint64(b.want) {
					t.Errorf("brk(%#x): err %v, result %#x, break %#x, want %#x", b.req, err, m.ExitCode(), mm.Brk(), b.want)
				}
			}

			// Any other call faults at its PC with the ISA's prefix.
			f, err = c.syscall(999, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			m, err = c.load(f, mem.New(0x10000, memSize), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(m); err == nil || !strings.HasPrefix(err.Error(), c.name+": unsupported syscall 999 at ") || m.Exited() {
				t.Errorf("syscall 999: %v", err)
			}

			// The image the assembler builds: a text and a data
			// segment and one symbol per label, each up to the next,
			// which debug/elf reads back from its bytes.
			f, err = c.syscall(93, 0, 0, 0, "first", "second")
			if err != nil {
				t.Fatal(err)
			}
			if err := elftest.Check(f); err != nil {
				t.Fatal(err)
			}
			if f.Machine != c.em || f.Entry != 0x10000 || len(f.Segments) != 2 {
				t.Fatalf("machine %d entry %#x, %d segments", f.Machine, f.Entry, len(f.Segments))
			}
			if f.Segments[0].Flags != elfio.PFR|elfio.PFX || f.Segments[1].Flags != elfio.PFR|elfio.PFW {
				t.Errorf("segment flags %d, %d", f.Segments[0].Flags, f.Segments[1].Flags)
			}
			text := uint64(len(f.Segments[0].Data))
			want := []elfio.Symbol{{Name: "first", Value: 0x10000, Size: 4}, {Name: "second", Value: 0x10004, Size: text - 4}}
			if len(f.Symbols) != 2 || f.Symbols[0] != want[0] || f.Symbols[1] != want[1] {
				t.Errorf("symbols %+v, want %+v", f.Symbols, want)
			}
		})
	}
}
