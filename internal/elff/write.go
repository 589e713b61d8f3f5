// Package elff reads and writes the ELF64 x86-64 images used throughout
// this repository. The writer produces real ELF files — parsable by
// debug/elf and by external tools — carrying a single loadable blob of
// code+data, a dynamic symbol table with exports and imports, JUMP_SLOT
// relocations for import GOT slots, DT_NEEDED entries, a full symbol
// table, and an optional unwind-info marker section.
//
// The reader models exactly that shape: one PT_LOAD segment with .text
// at its base. An image of any other layout — a real linker's separate
// code segment, say — is refused with ErrLayout instead of being
// analyzed through a partial view that would read as "no syscalls".
package elff

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Kind classifies an image.
type Kind uint8

// Image kinds.
const (
	// KindStatic is a non-PIC statically linked executable (ET_EXEC).
	KindStatic Kind = iota + 1
	// KindDynamic is a dynamically linked executable (ET_DYN with an
	// entry point and DT_NEEDED dependencies).
	KindDynamic
	// KindShared is a shared library (ET_DYN, no entry point).
	KindShared
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindDynamic:
		return "dynamic"
	case KindShared:
		return "shared"
	}
	return "unknown"
}

// Export is a function exposed through the dynamic symbol table.
type Export struct {
	Name string
	Addr uint64
}

// Import is an external function reference. SlotAddr is the virtual
// address of the GOT slot the import stub jumps through; the loader
// fills it with the provider's export address.
type Import struct {
	Name     string
	SlotAddr uint64
}

// DataSection names a sub-range of the loadable blob that holds data
// rather than code (a pointer table in .rodata, a RELRO segment, a
// writable .data region). The writer emits these as alias section
// headers over the single PT_LOAD blob — they carry no bytes of their
// own, only a typed view. Non-writable sections are immutable at
// runtime, which is what lets the indirect-call resolver treat loads
// from them as link-time constants.
type DataSection struct {
	Name     string
	Addr     uint64
	Size     uint64
	Writable bool
}

// Reloc is one R_X86_64_RELATIVE dynamic relocation: at load time the
// dynamic linker writes base+Target into the 8-byte slot at Slot. Our
// images are linked at their load address, so the slot already holds
// Target — the relocation records code-pointer provenance rather than
// patching anything.
type Reloc struct {
	Slot   uint64
	Target uint64
}

// Spec describes an image to write.
type Spec struct {
	Kind      Kind
	Base      uint64 // virtual address of Blob[0]
	Entry     uint64 // 0 for libraries
	Blob      []byte // code + data + GOT slots, one contiguous region
	CodeSize  uint64 // bytes of Blob that are code (.text); 0 means all
	Exports   []Export
	Imports   []Import
	Needed    []string          // DT_NEEDED library names
	Symbols   map[string]uint64 // local symbols for .symtab (may be nil)
	HasUnwind bool              // emit the .bside.unwind marker section
	Soname    string            // informational, stored in .symtab comment

	// DataSections are alias views over sub-ranges of Blob; see the
	// DataSection doc. Relocs become .rela.dyn RELATIVE entries.
	DataSections []DataSection
	Relocs       []Reloc
}

// ELF constants not worth importing debug/elf for on the write side.
const (
	etExec = 2
	etDyn  = 3

	shtProgbits = 1
	shtSymtab   = 2
	shtStrtab   = 3
	shtRela     = 4
	shtDynamic  = 6
	shtNobits   = 8
	shtDynsym   = 11

	shfWrite = 1
	shfAlloc = 2
	shfExec  = 4

	ptLoad = 1

	dtNull     = 0
	dtNeeded   = 1
	dtPltRelSz = 2
	dtStrtab   = 5
	dtSymtab   = 6
	dtJmpRel   = 23

	rX8664JumpSlot = 7
	rX8664Relative = 8

	stbGlobal = 1
	sttFunc   = 2
)

type strtab struct {
	buf []byte
	idx map[string]uint32
}

func newStrtab() *strtab {
	return &strtab{buf: []byte{0}, idx: map[string]uint32{"": 0}}
}

func (s *strtab) add(str string) uint32 {
	if off, ok := s.idx[str]; ok {
		return off
	}
	off := uint32(len(s.buf))
	s.buf = append(s.buf, str...)
	s.buf = append(s.buf, 0)
	s.idx[str] = off
	return off
}

type section struct {
	name               string
	typ, flags         uint32
	addr, off, size    uint64
	link, info         uint32
	addralign, entsize uint64
	data               []byte
	// alias marks a header-only view into the blob: it contributes no
	// file bytes of its own and its offset is derived from its vaddr.
	alias bool
}

// Write serializes the spec into an ELF64 image.
func Write(spec Spec) ([]byte, error) {
	if len(spec.Blob) == 0 {
		return nil, fmt.Errorf("elff: empty blob")
	}
	if spec.Kind == 0 {
		return nil, fmt.Errorf("elff: kind not set")
	}

	dynstr := newStrtab()
	// Dynamic symbols: null, then exports, then imports.
	var dynsym bytes.Buffer
	dynsym.Write(make([]byte, 24)) // index 0: null symbol
	putSym := func(w *bytes.Buffer, nameOff uint32, info byte, shndx uint16, value uint64) {
		var e [24]byte
		binary.LittleEndian.PutUint32(e[0:], nameOff)
		e[4] = info
		e[5] = 0
		binary.LittleEndian.PutUint16(e[6:], shndx)
		binary.LittleEndian.PutUint64(e[8:], value)
		binary.LittleEndian.PutUint64(e[16:], 0)
		w.Write(e[:])
	}
	// .text will be section index 1.
	for _, ex := range spec.Exports {
		putSym(&dynsym, dynstr.add(ex.Name), stbGlobal<<4|sttFunc, 1, ex.Addr)
	}
	importBase := 1 + len(spec.Exports)
	var rela bytes.Buffer
	for i, im := range spec.Imports {
		putSym(&dynsym, dynstr.add(im.Name), stbGlobal<<4|sttFunc, 0, 0)
		var e [24]byte
		binary.LittleEndian.PutUint64(e[0:], im.SlotAddr)
		binary.LittleEndian.PutUint64(e[8:], uint64(importBase+i)<<32|rX8664JumpSlot)
		binary.LittleEndian.PutUint64(e[16:], 0)
		rela.Write(e[:])
	}

	var dynamic bytes.Buffer
	putDyn := func(tag, val uint64) {
		var e [16]byte
		binary.LittleEndian.PutUint64(e[0:], tag)
		binary.LittleEndian.PutUint64(e[8:], val)
		dynamic.Write(e[:])
	}
	for _, lib := range spec.Needed {
		putDyn(dtNeeded, uint64(dynstr.add(lib)))
	}
	putDyn(dtSymtab, 0) // filled below once addresses are known; placeholder
	putDyn(dtStrtab, 0)
	if rela.Len() > 0 {
		putDyn(dtJmpRel, 0)
		putDyn(dtPltRelSz, uint64(rela.Len()))
	}
	putDyn(dtNull, 0)

	// Local symbol table.
	symstr := newStrtab()
	var symtab bytes.Buffer
	symtab.Write(make([]byte, 24))
	for _, name := range sortedKeys(spec.Symbols) {
		putSym(&symtab, symstr.add(name), stbGlobal<<4|sttFunc, 1, spec.Symbols[name])
	}

	codeSize := spec.CodeSize
	if codeSize == 0 || codeSize > uint64(len(spec.Blob)) {
		codeSize = uint64(len(spec.Blob))
	}
	sections := []*section{
		{}, // null section
		{name: ".text", typ: shtProgbits, flags: shfAlloc | shfExec | shfWrite,
			addr: spec.Base, size: codeSize, addralign: 16, data: spec.Blob},
		{name: ".dynsym", typ: shtDynsym, size: uint64(dynsym.Len()),
			link: 3, info: 1, addralign: 8, entsize: 24, data: dynsym.Bytes()},
		{name: ".dynstr", typ: shtStrtab, size: uint64(len(dynstr.buf)), addralign: 1, data: dynstr.buf},
		{name: ".rela.plt", typ: shtRela, size: uint64(rela.Len()),
			link: 2, info: 1, addralign: 8, entsize: 24, data: rela.Bytes()},
		{name: ".dynamic", typ: shtDynamic, size: uint64(dynamic.Len()),
			link: 3, addralign: 8, entsize: 16, data: dynamic.Bytes()},
		{name: ".symtab", typ: shtSymtab, size: uint64(symtab.Len()),
			link: 7, info: 1, addralign: 8, entsize: 24, data: symtab.Bytes()},
		{name: ".strtab", typ: shtStrtab, size: uint64(len(symstr.buf)), addralign: 1, data: symstr.buf},
	}
	if spec.HasUnwind {
		sections = append(sections, &section{name: ".bside.unwind", typ: shtProgbits,
			size: 8, addralign: 1, data: []byte("BSUNWIND")})
	}
	for _, ds := range spec.DataSections {
		if ds.Addr < spec.Base || ds.Size > uint64(len(spec.Blob)) ||
			ds.Addr-spec.Base > uint64(len(spec.Blob))-ds.Size {
			return nil, fmt.Errorf("elff: data section %s outside blob", ds.Name)
		}
		flags := uint32(shfAlloc)
		if ds.Writable {
			flags |= shfWrite
		}
		sections = append(sections, &section{name: ds.Name, typ: shtProgbits,
			flags: flags, addr: ds.Addr, size: ds.Size, addralign: 1, alias: true})
	}
	var relaDyn bytes.Buffer
	for _, r := range spec.Relocs {
		var e [24]byte
		binary.LittleEndian.PutUint64(e[0:], r.Slot)
		binary.LittleEndian.PutUint64(e[8:], rX8664Relative)
		binary.LittleEndian.PutUint64(e[16:], r.Target)
		relaDyn.Write(e[:])
	}
	if relaDyn.Len() > 0 {
		sections = append(sections, &section{name: ".rela.dyn", typ: shtRela,
			size: uint64(relaDyn.Len()), addralign: 8, entsize: 24, data: relaDyn.Bytes()})
	}
	shstr := newStrtab()
	var shstrData []byte
	shstrSec := &section{name: ".shstrtab", typ: shtStrtab, addralign: 1}
	sections = append(sections, shstrSec)
	for _, s := range sections[1:] {
		shstr.add(s.name)
	}
	shstrData = shstr.buf
	shstrSec.data = shstrData
	shstrSec.size = uint64(len(shstrData))

	// Layout: ehdr(64) + 1 phdr(56) + section contents + shdr table.
	const ehsize, phsize, shsize = 64, 56, 64
	off := uint64(ehsize + phsize)
	// Keep the blob offset congruent with its vaddr modulo page size so
	// real loaders would accept it; our own loader does not care but
	// debug/elf consumers might.
	blobOff := (off + 0xFFF) &^ 0xFFF
	sections[1].off = blobOff
	off = blobOff + uint64(len(spec.Blob))
	for _, s := range sections[2:] {
		if s.alias {
			// Views into the blob: the file range is wherever the blob
			// put those virtual addresses.
			s.off = blobOff + (s.addr - spec.Base)
			continue
		}
		align := s.addralign
		if align == 0 {
			align = 1
		}
		off = (off + align - 1) &^ (align - 1)
		s.off = off
		off += uint64(len(s.data))
	}
	shoff := (off + 7) &^ 7

	// Now that section addresses are fixed, patch the .dynamic pointers.
	// Metadata sections are not loaded; the values are file offsets,
	// which our reader understands.
	patchDynamic(dynamic.Bytes(), dtSymtab, sections[2].off)
	patchDynamic(dynamic.Bytes(), dtStrtab, sections[3].off)
	if rela.Len() > 0 {
		patchDynamic(dynamic.Bytes(), dtJmpRel, sections[4].off)
	}

	var out bytes.Buffer
	// ELF header.
	var eh [ehsize]byte
	copy(eh[:], []byte{0x7F, 'E', 'L', 'F', 2 /*64-bit*/, 1 /*LE*/, 1 /*version*/})
	etype := uint16(etDyn)
	if spec.Kind == KindStatic {
		etype = etExec
	}
	binary.LittleEndian.PutUint16(eh[16:], etype)
	binary.LittleEndian.PutUint16(eh[18:], 62) // EM_X86_64
	binary.LittleEndian.PutUint32(eh[20:], 1)
	binary.LittleEndian.PutUint64(eh[24:], spec.Entry)
	binary.LittleEndian.PutUint64(eh[32:], ehsize) // phoff
	binary.LittleEndian.PutUint64(eh[40:], shoff)  // shoff
	binary.LittleEndian.PutUint16(eh[52:], ehsize) // ehsize
	binary.LittleEndian.PutUint16(eh[54:], phsize) // phentsize
	binary.LittleEndian.PutUint16(eh[56:], 1)      // phnum
	binary.LittleEndian.PutUint16(eh[58:], shsize) // shentsize
	binary.LittleEndian.PutUint16(eh[60:], uint16(len(sections)))
	binary.LittleEndian.PutUint16(eh[62:], uint16(len(sections)-1)) // shstrndx
	out.Write(eh[:])

	// One PT_LOAD for the blob (RWX: synthetic corpus images mix code,
	// data and GOT slots in a single region by design).
	var ph [phsize]byte
	binary.LittleEndian.PutUint32(ph[0:], ptLoad)
	binary.LittleEndian.PutUint32(ph[4:], 7) // RWX
	binary.LittleEndian.PutUint64(ph[8:], blobOff)
	binary.LittleEndian.PutUint64(ph[16:], spec.Base)
	binary.LittleEndian.PutUint64(ph[24:], spec.Base)
	binary.LittleEndian.PutUint64(ph[32:], uint64(len(spec.Blob)))
	binary.LittleEndian.PutUint64(ph[40:], uint64(len(spec.Blob)))
	binary.LittleEndian.PutUint64(ph[48:], 0x1000)
	out.Write(ph[:])

	// Section contents. Alias sections contribute no bytes — their file
	// ranges live inside the blob already written for .text.
	for _, s := range sections[1:] {
		if s.alias {
			continue
		}
		pad := int(s.off) - out.Len()
		if pad < 0 {
			return nil, fmt.Errorf("elff: layout error for %s", s.name)
		}
		out.Write(make([]byte, pad))
		out.Write(s.data)
	}
	// Section header table.
	pad := int(shoff) - out.Len()
	if pad < 0 {
		return nil, fmt.Errorf("elff: shdr layout error")
	}
	out.Write(make([]byte, pad))
	for _, s := range sections {
		var sh [shsize]byte
		binary.LittleEndian.PutUint32(sh[0:], shstr.add(s.name))
		binary.LittleEndian.PutUint32(sh[4:], s.typ)
		binary.LittleEndian.PutUint64(sh[8:], uint64(s.flags))
		binary.LittleEndian.PutUint64(sh[16:], s.addr)
		binary.LittleEndian.PutUint64(sh[24:], s.off)
		binary.LittleEndian.PutUint64(sh[32:], s.size)
		binary.LittleEndian.PutUint32(sh[40:], s.link)
		binary.LittleEndian.PutUint32(sh[44:], s.info)
		binary.LittleEndian.PutUint64(sh[48:], s.addralign)
		binary.LittleEndian.PutUint64(sh[56:], s.entsize)
		out.Write(sh[:])
	}
	return out.Bytes(), nil
}

func patchDynamic(dyn []byte, tag, val uint64) {
	for off := 0; off+16 <= len(dyn); off += 16 {
		if binary.LittleEndian.Uint64(dyn[off:]) == tag {
			binary.LittleEndian.PutUint64(dyn[off+8:], val)
			return
		}
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
