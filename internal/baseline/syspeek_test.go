package baseline

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// codeRegions writes img to a file and reads its code regions back.
func codeRegions(t *testing.T, img []byte) []CodeRegion {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	regions, err := CodeRegions(path)
	if err != nil {
		t.Fatal(err)
	}
	return regions
}

// scan serializes bin and runs the scanner over the code regions
// debug/elf finds in the image, as the sweep's -diff mode does.
func scan(t *testing.T, bin *elff.Binary) *Result {
	t.Helper()
	img, err := elff.Write(bin.Spec())
	if err != nil {
		t.Fatal(err)
	}
	return Syspeek(codeRegions(t, img))
}

func TestSyspeekResolvesImmediateSites(t *testing.T) {
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.XorRegReg(x86.RAX, x86.RAX) // resolves to read (0)
		b.Syscall()
		b.Ret()
	}, nil)
	res := scan(t, bin)
	if res.SitesTotal != 2 || res.SitesResolved != 2 {
		t.Fatalf("sites: %d/%d, want 2/2", res.SitesResolved, res.SitesTotal)
	}
	if !reflect.DeepEqual(res.Syscalls, []uint64{0, 60}) {
		t.Fatalf("syscalls: %v", res.Syscalls)
	}
	if res.FellBack {
		t.Fatal("syspeek has no fallback set")
	}
}

func TestSyspeekCannotResolveIndirectNumbers(t *testing.T) {
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		// Number carried through another register: a linear scanner
		// sees the mov but cannot know RDI's value.
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	}, nil)
	res := scan(t, bin)
	if res.SitesTotal != 1 || res.SitesResolved != 0 {
		t.Fatalf("sites: %d/%d, want 0/1", res.SitesResolved, res.SitesTotal)
	}
	if len(res.Syscalls) != 0 {
		t.Fatalf("unresolved site contributed values: %v", res.Syscalls)
	}
}

func TestSyspeekScansDeadCode(t *testing.T) {
	// The scanner has no reachability: a syscall site in a function
	// nothing calls is reported all the same. (This is the documented
	// precision gap the sweep's -diff mode must tolerate in reverse —
	// and why generated corpora keep dead code syscall-free.)
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("never_called")
		b.MovRegImm32(x86.RAX, 39)
		b.Syscall()
		b.Ret()
	}, nil)
	res := scan(t, bin)
	if !reflect.DeepEqual(res.Syscalls, []uint64{39, 60}) {
		t.Fatalf("syscalls: %v, want [39 60]", res.Syscalls)
	}
}

func TestSyspeekResyncsOverData(t *testing.T) {
	// Garbage bytes between functions (jump tables, padding) must not
	// derail the scan: decode errors resync one byte at a time.
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Raw(0x06, 0x07, 0x0e, 0x16) // invalid in 64-bit mode
		b.Func("tail")
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.Ret()
	}, nil)
	res := scan(t, bin)
	if !reflect.DeepEqual(res.Syscalls, []uint64{1, 60}) {
		t.Fatalf("syscalls: %v, want [1 60]", res.Syscalls)
	}
}

func TestSyspeekInterveningWriteBlocksResolution(t *testing.T) {
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.AddRegImm(x86.RAX, 1) // clobbers the immediate
		b.Syscall()
		b.Ret()
	}, nil)
	res := scan(t, bin)
	if res.SitesResolved != 0 {
		t.Fatalf("clobbered site resolved: %v", res.Syscalls)
	}
}

// TestCodeRegionsFallBackToExecutableSegments: an image without
// section headers is scanned through its PF_X segments — every one of
// them, not only the first — and never through a data segment.
func TestCodeRegionsFallBackToExecutableSegments(t *testing.T) {
	segs := []struct {
		flags elf.ProgFlag
		addr  uint64
		code  []byte
	}{
		{elf.PF_R | elf.PF_X, 0x400000, []byte{0xC3}},                                     // ret
		{elf.PF_R | elf.PF_W, 0x600000, []byte{0xB8, 0x01, 0x00, 0x00, 0x00, 0x0F, 0x05}}, // data: mov eax, 1; syscall
		{elf.PF_R | elf.PF_X, 0x800000, []byte{0xB8, 0x3C, 0x00, 0x00, 0x00, 0x0F, 0x05}}, // mov eax, 60; syscall
	}
	var buf bytes.Buffer
	hdr := elf.Header64{
		Type: uint16(elf.ET_EXEC), Machine: uint16(elf.EM_X86_64), Version: uint32(elf.EV_CURRENT),
		Entry: 0x400000, Phoff: 64, Ehsize: 64, Phentsize: 56, Phnum: uint16(len(segs)),
	}
	copy(hdr.Ident[:], []byte{0x7F, 'E', 'L', 'F', byte(elf.ELFCLASS64), byte(elf.ELFDATA2LSB), byte(elf.EV_CURRENT)})
	binary.Write(&buf, binary.LittleEndian, hdr)
	off := uint64(64 + 56*len(segs))
	for _, s := range segs {
		n := uint64(len(s.code))
		binary.Write(&buf, binary.LittleEndian, elf.Prog64{Type: uint32(elf.PT_LOAD), Flags: uint32(s.flags),
			Off: off, Vaddr: s.addr, Paddr: s.addr, Filesz: n, Memsz: n, Align: 1})
		off += n
	}
	for _, s := range segs {
		buf.Write(s.code)
	}

	regions := codeRegions(t, buf.Bytes())
	if len(regions) != 2 || regions[0].Addr != 0x400000 || regions[1].Addr != 0x800000 {
		t.Fatalf("regions: %+v, want the two PF_X segments", regions)
	}
	res := Syspeek(regions)
	if res.SitesTotal != 1 || !reflect.DeepEqual(res.Syscalls, []uint64{60}) {
		t.Fatalf("scan: %d sites, syscalls %v; want 1 site resolving [60]", res.SitesTotal, res.Syscalls)
	}
}
