package elff

import (
	"bytes"
	"crypto/sha256"
	"debug/elf"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
)

// ErrMalformed marks every parse failure caused by the image itself —
// truncated headers, out-of-range offsets, header-driven size fields
// that exceed the file, unsupported machine/type values. Callers
// classify with errors.Is(err, ErrMalformed): the serve tier maps it
// to HTTP 400 (client sent garbage) instead of 500 (we broke), and
// the sweep tier counts it as an input failure rather than an
// analyzer fault.
var ErrMalformed = errors.New("malformed ELF image")

// ErrLayout marks a valid image the single-segment model cannot
// represent: more than one PT_LOAD, or no .text at the segment base.
// Code outside the modelled region would be invisible and read as "no
// syscalls", so the image is refused. It is not ErrMalformed: the image
// is well formed; the reader falls short.
var ErrLayout = errors.New("ELF layout not supported")

// badImage wraps a structural parse failure so it is both ErrMalformed
// (classification) and the specific cause (diagnosis).
func badImage(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// maxBSSBytes bounds how much zero-filled memory a PT_LOAD header can
// demand beyond its file-backed bytes (Memsz - Filesz). Real BSS in
// the binaries this analyzer targets is megabytes at most; a header
// asking for more is an allocation bomb, not a program.
const maxBSSBytes = 64 << 20

// Binary is a parsed ELF image ready for analysis or emulation.
type Binary struct {
	Path string
	// Hash is the lowercase hex SHA-256 of the serialized image the
	// binary was parsed from — the content address used by the on-disk
	// analysis caches. Empty for binaries assembled in memory without a
	// serialization round trip.
	Hash      string
	Kind      Kind
	Entry     uint64
	Base      uint64 // virtual address of Blob[0]
	Blob      []byte // the one loadable region
	CodeSize  uint64 // leading bytes of Blob that are code (.text)
	Exports   []Export
	Imports   []Import
	Needed    []string
	Symbols   map[string]uint64
	HasUnwind bool

	// DataSections are the non-executable ALLOC PROGBITS views into
	// Blob; Relocs are the R_X86_64_RELATIVE entries from .rela.dyn.
	// Both feed the indirect-call resolver's provenance layer.
	DataSections []DataSection
	Relocs       []Reloc

	// img is the backing image when the binary was parsed through
	// OpenBinary; Blob may alias it. Released by ReleaseImage.
	img *Image
}

// CodeContains reports whether addr is inside the code (.text) part of
// the loadable region — the part a disassembler should treat as
// instructions.
func (b *Binary) CodeContains(addr uint64) bool {
	return addr >= b.Base && addr < b.Base+b.CodeSize
}

// CodeEnd returns the first virtual address past the loadable region.
func (b *Binary) CodeEnd() uint64 { return b.Base + uint64(len(b.Blob)) }

// Contains reports whether addr falls inside the loadable region.
func (b *Binary) Contains(addr uint64) bool {
	return addr >= b.Base && addr < b.CodeEnd()
}

// BytesAt returns the blob starting at virtual address addr.
func (b *Binary) BytesAt(addr uint64) ([]byte, bool) {
	if !b.Contains(addr) {
		return nil, false
	}
	return b.Blob[addr-b.Base:], true
}

// U64At reads a little-endian uint64 at virtual address addr.
func (b *Binary) U64At(addr uint64) (uint64, bool) {
	s, ok := b.BytesAt(addr)
	if !ok || len(s) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(s), true
}

// ROU64At reads a little-endian quad at addr when the whole 8-byte
// window lies inside a read-only data section. A load satisfied here is
// immutable at runtime (modulo rebasing, which our fixed-base images do
// not do), so the static value equals the runtime value — the contract
// the resolver's provenance layer depends on. Returns false for
// writable sections, unmapped addresses, and ranges the section
// metadata does not cover.
func (b *Binary) ROU64At(addr uint64) (uint64, bool) {
	for _, ds := range b.DataSections {
		if ds.Writable {
			continue
		}
		if addr >= ds.Addr && addr-ds.Addr+8 <= ds.Size {
			return b.U64At(addr)
		}
	}
	return 0, false
}

// ExportAddr looks up an exported symbol.
func (b *Binary) ExportAddr(name string) (uint64, bool) {
	for _, e := range b.Exports {
		if e.Name == name {
			return e.Addr, true
		}
	}
	return 0, false
}

// ImportAtSlot maps a GOT slot virtual address back to the imported
// symbol name, mirroring how PLT-stub resolution works on real binaries.
func (b *Binary) ImportAtSlot(slot uint64) (string, bool) {
	for _, im := range b.Imports {
		if im.SlotAddr == slot {
			return im.Name, true
		}
	}
	return "", false
}

// Spec reconstructs a writable Spec from the parsed binary, so images
// can be re-serialized (corpus generation writes binaries to disk this
// way).
func (b *Binary) Spec() Spec {
	return Spec{
		Kind:      b.Kind,
		Base:      b.Base,
		Entry:     b.Entry,
		Blob:      b.Blob,
		CodeSize:  b.CodeSize,
		Exports:   b.Exports,
		Imports:   b.Imports,
		Needed:    b.Needed,
		Symbols:   b.Symbols,
		HasUnwind: b.HasUnwind,

		DataSections: b.DataSections,
		Relocs:       b.Relocs,
	}
}

// WriteFile serializes the binary to an ELF file at path.
func (b *Binary) WriteFile(path string) error {
	data, err := Write(b.Spec())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o755)
}

// ReadFile parses the ELF image at path.
func ReadFile(path string) (*Binary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("elff: %w", err)
	}
	b, err := Read(data)
	if err != nil {
		return nil, fmt.Errorf("elff: %s: %w", path, err)
	}
	b.Path = path
	return b, nil
}

// Read parses an ELF image from memory. The returned Binary's Blob is
// a private copy — callers may reuse or mutate data afterwards.
func Read(data []byte) (*Binary, error) {
	return readHashed(data, "", false)
}

// ReadPrehashed parses like Read but reuses a content hash already
// computed over exactly these bytes (typically by ReadIdentity on the
// cache-probe path), skipping a second SHA-256 over the image. hash
// must be what Read would compute for data — anything else poisons
// every content-addressed cache entry keyed by it.
func ReadPrehashed(data []byte, hash string) (*Binary, error) {
	return readHashed(data, hash, false)
}

// ReadPrehashedAlias parses like ReadPrehashed but lets the Binary's
// Blob alias data directly — zero-copy — whenever the image layout
// allows it (a PT_LOAD with Filesz == Memsz, which every image this
// package writes has). The caller must keep data immutable and alive
// for as long as the Binary's Blob is in use; the mmap frontend
// (OpenBinary / bside's file path) owns that contract. Layouts with
// trailing BSS (Filesz < Memsz) silently fall back to the copying
// path.
func ReadPrehashedAlias(data []byte, hash string) (*Binary, error) {
	return readHashed(data, hash, true)
}

func readHashed(data []byte, hash string, alias bool) (*Binary, error) {
	f, err := elf.NewFile(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%w: parse: %w", ErrMalformed, err)
	}
	defer f.Close()

	if f.Machine != elf.EM_X86_64 {
		return nil, badImage("unsupported machine %v", f.Machine)
	}

	if hash == "" {
		sum := sha256.Sum256(data)
		hash = hex.EncodeToString(sum[:])
	}
	out := &Binary{Entry: f.Entry, Hash: hash, Symbols: make(map[string]uint64)}
	switch {
	case f.Type == elf.ET_EXEC:
		out.Kind = KindStatic
	case f.Type == elf.ET_DYN && f.Entry != 0:
		out.Kind = KindDynamic
	case f.Type == elf.ET_DYN:
		out.Kind = KindShared
	default:
		return nil, badImage("unsupported ELF type %v", f.Type)
	}

	// Validate every PT_LOAD before refusing a layout, so a bad later
	// segment is still reported as ErrMalformed.
	var load *elf.Prog
	loads := 0
	for _, p := range f.Progs {
		if p.Type != elf.PT_LOAD {
			continue
		}
		// Every size and offset below comes straight from an untrusted
		// header; clamp against the actual file before believing any of
		// it. A 100-byte file must not be able to request gigabytes.
		if p.Off > uint64(len(data)) || p.Filesz > uint64(len(data))-p.Off {
			return nil, badImage("PT_LOAD file range [%#x,+%#x) exceeds image size %d", p.Off, p.Filesz, len(data))
		}
		if p.Memsz < p.Filesz {
			return nil, badImage("PT_LOAD memsz %#x smaller than filesz %#x", p.Memsz, p.Filesz)
		}
		if p.Memsz-p.Filesz > maxBSSBytes {
			return nil, badImage("PT_LOAD demands %#x zero-fill bytes (limit %#x)", p.Memsz-p.Filesz, uint64(maxBSSBytes))
		}
		if load == nil {
			load = p
		}
		loads++
	}
	if load == nil {
		return nil, badImage("no PT_LOAD segment")
	}
	if loads > 1 {
		return nil, fmt.Errorf("%w: %d PT_LOAD segments, one supported", ErrLayout, loads)
	}
	ts := f.Section(".text")
	if ts == nil || ts.Addr != load.Vaddr {
		return nil, fmt.Errorf("%w: no .text section at the segment base %#x", ErrLayout, load.Vaddr)
	}
	if alias && load.Filesz == load.Memsz {
		// Zero-copy: the loadable region is fully materialized in the
		// file, so the blob can be a view into the source bytes
		// (typically an mmap'd image) instead of a heap copy.
		out.Blob = data[load.Off : load.Off+load.Filesz : load.Off+load.Filesz]
	} else {
		out.Blob = make([]byte, load.Memsz)
		copy(out.Blob, data[load.Off:load.Off+load.Filesz])
	}
	out.Base = load.Vaddr
	out.CodeSize = uint64(len(out.Blob))
	if ts.Size > 0 && ts.Size <= out.CodeSize {
		out.CodeSize = ts.Size
	}

	dynsyms, err := f.DynamicSymbols()
	if err == nil {
		for _, s := range dynsyms {
			if s.Section == elf.SHN_UNDEF {
				continue
			}
			out.Exports = append(out.Exports, Export{Name: s.Name, Addr: s.Value})
		}
	}

	// JUMP_SLOT relocations pair import names with GOT slots.
	if rp := f.Section(".rela.plt"); rp != nil && len(dynsyms) > 0 {
		data, err := rp.Data()
		if err != nil {
			return nil, fmt.Errorf("%w: .rela.plt: %w", ErrMalformed, err)
		}
		for off := 0; off+24 <= len(data); off += 24 {
			slot := binary.LittleEndian.Uint64(data[off:])
			info := binary.LittleEndian.Uint64(data[off+8:])
			if info&0xFFFFFFFF != rX8664JumpSlot {
				continue
			}
			symIdx := info >> 32
			if symIdx == 0 || symIdx > uint64(len(dynsyms)) {
				return nil, badImage(".rela.plt: bad symbol index %d", symIdx)
			}
			out.Imports = append(out.Imports, Import{
				Name:     dynsyms[symIdx-1].Name,
				SlotAddr: slot,
			})
		}
	}

	if libs, err := f.ImportedLibraries(); err == nil {
		out.Needed = libs
	}

	// Data-section views over the blob. Sections outside the PT_LOAD
	// region (non-ALLOC or out-of-range headers) are skipped: the
	// resolver can only vouch for bytes it can actually read.
	for _, s := range f.Sections {
		if s.Type != elf.SHT_PROGBITS || s.Flags&elf.SHF_ALLOC == 0 ||
			s.Flags&elf.SHF_EXECINSTR != 0 {
			continue
		}
		if s.Addr < out.Base || s.Size > uint64(len(out.Blob)) ||
			s.Addr-out.Base > uint64(len(out.Blob))-s.Size {
			continue
		}
		out.DataSections = append(out.DataSections, DataSection{
			Name:     s.Name,
			Addr:     s.Addr,
			Size:     s.Size,
			Writable: s.Flags&elf.SHF_WRITE != 0,
		})
	}

	// RELATIVE relocations record where the linker planted code/data
	// pointers in data memory — provenance the CFG's table scan and the
	// resolver both consume.
	if rd := f.Section(".rela.dyn"); rd != nil {
		data, err := rd.Data()
		if err != nil {
			return nil, fmt.Errorf("%w: .rela.dyn: %w", ErrMalformed, err)
		}
		for off := 0; off+24 <= len(data); off += 24 {
			info := binary.LittleEndian.Uint64(data[off+8:])
			if info&0xFFFFFFFF != rX8664Relative {
				continue
			}
			out.Relocs = append(out.Relocs, Reloc{
				Slot:   binary.LittleEndian.Uint64(data[off:]),
				Target: binary.LittleEndian.Uint64(data[off+16:]),
			})
		}
	}

	if syms, err := f.Symbols(); err == nil {
		for _, s := range syms {
			if s.Name != "" {
				out.Symbols[s.Name] = s.Value
			}
		}
	}

	out.HasUnwind = f.Section(".bside.unwind") != nil
	return out, nil
}
