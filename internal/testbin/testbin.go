// Package testbin builds small in-memory ELF images for tests. It wraps
// the assembler and ELF writer behind a couple of conventions: the
// "_start" label becomes the entry point, and an optional "__code_end"
// label separates code from data.
package testbin

import (
	"encoding/binary"
	"testing"

	"bside/internal/asm"
	"bside/internal/elff"
)

// Base is the load address used for all test images.
const Base = 0x400000

// Build assembles fn into an ELF image of the given kind and parses it
// back. Extra customization of the spec (imports, needed libraries) can
// be applied through mutate (may be nil).
func Build(t testing.TB, kind elff.Kind, fn func(b *asm.Builder), mutate func(spec *elff.Spec, syms map[string]uint64)) (*elff.Binary, map[string]uint64) {
	t.Helper()
	return BuildAt(t, kind, Base, fn, mutate)
}

// BuildAt is Build with an explicit load address (distinct modules of
// one emulated process need disjoint bases).
func BuildAt(t testing.TB, kind elff.Kind, base uint64, fn func(b *asm.Builder), mutate func(spec *elff.Spec, syms map[string]uint64)) (*elff.Binary, map[string]uint64) {
	t.Helper()
	b := asm.New()
	fn(b)
	if err := b.Err(); err != nil {
		t.Fatalf("testbin: assemble: %v", err)
	}
	img, syms, err := b.Finalize(base)
	if err != nil {
		t.Fatalf("testbin: finalize: %v", err)
	}
	// Only function symbols go into the symbol table; local labels are
	// an assembler-internal concept, as in real binaries.
	funcSyms := make(map[string]uint64)
	for _, name := range b.FuncNames() {
		funcSyms[name] = syms[name]
	}
	spec := elff.Spec{
		Kind:    kind,
		Base:    base,
		Entry:   syms["_start"],
		Blob:    img,
		Symbols: funcSyms,
	}
	if end, ok := syms["__code_end"]; ok {
		spec.CodeSize = end - base
	}
	if kind == elff.KindShared {
		spec.Entry = 0
	}
	if mutate != nil {
		mutate(&spec, syms)
	}
	data, err := elff.Write(spec)
	if err != nil {
		t.Fatalf("testbin: write: %v", err)
	}
	bin, err := elff.Read(data)
	if err != nil {
		t.Fatalf("testbin: read: %v", err)
	}
	return bin, syms
}

// TwoSegments rewrites an image elff.Write produced so its one PT_LOAD
// becomes two, each mapping half of the same bytes at the same
// addresses: the multi-segment shape real linkers emit, which the
// reader refuses with elff.ErrLayout.
func TwoSegments(img []byte) []byte {
	le, out := binary.LittleEndian, append([]byte(nil), img...)
	first, second := out[64:120], out[120:176] // the writer pads to 0x1000
	copy(second, first)
	size := le.Uint64(first[32:])        // filesz == memsz
	for _, f := range []int{8, 16, 24} { // offset, vaddr, paddr
		le.PutUint64(second[f:], le.Uint64(second[f:])+size/2)
	}
	for _, f := range []int{32, 40} {
		le.PutUint64(first[f:], size/2)
		le.PutUint64(second[f:], size-size/2)
	}
	le.PutUint16(out[56:], 2) // e_phnum
	return out
}

// HeadersInSegment rewrites an image elff.Write produced so its PT_LOAD
// also maps the file's first page, as real linkers map the ELF headers:
// .text then starts past the segment base, which the reader refuses
// with elff.ErrLayout.
func HeadersInSegment(img []byte) []byte {
	le, out := binary.LittleEndian, append([]byte(nil), img...)
	ph := out[64:120]
	off := le.Uint64(ph[8:])
	for _, f := range []int{8, 16, 24} { // offset, vaddr, paddr
		le.PutUint64(ph[f:], le.Uint64(ph[f:])-off)
	}
	for _, f := range []int{32, 40} { // filesz, memsz
		le.PutUint64(ph[f:], le.Uint64(ph[f:])+off)
	}
	return out
}
