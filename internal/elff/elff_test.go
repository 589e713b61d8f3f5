package elff

import (
	"bytes"
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"bside/internal/asm"
	"bside/internal/x86"
)

// buildSample assembles a tiny program with an import stub, finalizes it
// and wraps it in a Spec.
func buildSample(t *testing.T, kind Kind, base uint64) (Spec, map[string]uint64) {
	t.Helper()
	b := asm.New()
	b.Label("_start")
	b.MovRegImm32(x86.RAX, 60)
	b.Syscall()
	b.CallLabel("stub_write")
	b.Ret()
	b.Label("helper")
	b.MovRegImm32(x86.RAX, 1)
	b.Syscall()
	b.Ret()
	b.Label("stub_write")
	b.JmpMemRIP("got_write")
	b.Align(8)
	b.Label("got_write")
	b.Quad(0)
	img, syms, err := b.Finalize(base)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	spec := Spec{
		Kind:  kind,
		Base:  base,
		Entry: syms["_start"],
		Blob:  img,
		Exports: []Export{
			{Name: "helper", Addr: syms["helper"]},
		},
		Imports: []Import{
			{Name: "write", SlotAddr: syms["got_write"]},
		},
		Needed:    []string{"libc.so.6"},
		Symbols:   syms,
		HasUnwind: true,
	}
	if kind == KindShared {
		spec.Entry = 0
	}
	return spec, syms
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindStatic, KindDynamic, KindShared} {
		t.Run(kind.String(), func(t *testing.T) {
			base := uint64(0x400000)
			spec, syms := buildSample(t, kind, base)
			data, err := Write(spec)
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			bin, err := Read(data)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if bin.Kind != kind {
				t.Errorf("kind %v want %v", bin.Kind, kind)
			}
			if bin.Base != base || !bytes.Equal(bin.Blob, spec.Blob) {
				t.Errorf("blob mismatch: base %#x len %d", bin.Base, len(bin.Blob))
			}
			if kind != KindShared && bin.Entry != syms["_start"] {
				t.Errorf("entry %#x want %#x", bin.Entry, syms["_start"])
			}
			if a, ok := bin.ExportAddr("helper"); !ok || a != syms["helper"] {
				t.Errorf("export helper %#x ok=%v", a, ok)
			}
			if len(bin.Imports) != 1 || bin.Imports[0].Name != "write" ||
				bin.Imports[0].SlotAddr != syms["got_write"] {
				t.Errorf("imports: %+v", bin.Imports)
			}
			if len(bin.Needed) != 1 || bin.Needed[0] != "libc.so.6" {
				t.Errorf("needed: %v", bin.Needed)
			}
			if !bin.HasUnwind {
				t.Error("unwind marker lost")
			}
			if bin.Symbols["helper"] != syms["helper"] {
				t.Errorf("symtab: %v", bin.Symbols)
			}
		})
	}
}

func TestDataSectionAndRelocRoundTrip(t *testing.T) {
	spec, syms := buildSample(t, KindDynamic, 0x400000)
	// Treat the tail of the blob (the GOT quad) as two overlapping data
	// views to exercise both writabilities, and record one RELATIVE
	// reloc pointing back into code.
	slot := syms["got_write"]
	spec.DataSections = []DataSection{
		{Name: ".rodata", Addr: slot, Size: 8, Writable: false},
		{Name: ".data", Addr: slot, Size: 8, Writable: true},
	}
	spec.Relocs = []Reloc{{Slot: slot, Target: syms["helper"]}}
	data, err := Write(spec)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	bin, err := Read(data)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(bin.DataSections) != 2 ||
		bin.DataSections[0] != spec.DataSections[0] ||
		bin.DataSections[1] != spec.DataSections[1] {
		t.Fatalf("data sections: %+v", bin.DataSections)
	}
	if len(bin.Relocs) != 1 || bin.Relocs[0] != spec.Relocs[0] {
		t.Fatalf("relocs: %+v", bin.Relocs)
	}
	// The read-only view makes the quad visible through ROU64At; an
	// address one past the window must not be.
	if v, ok := bin.ROU64At(slot); !ok || v != 0 {
		t.Fatalf("ROU64At(slot) = %#x, %v", v, ok)
	}
	if _, ok := bin.ROU64At(slot + 1); ok {
		t.Fatal("ROU64At past the section window succeeded")
	}
	// Spec() must carry the new fields so WriteFile round-trips them.
	rt := bin.Spec()
	if len(rt.DataSections) != 2 || len(rt.Relocs) != 1 {
		t.Fatalf("Spec() dropped resolver metadata: %+v", rt)
	}
	// The file must still satisfy debug/elf with the extra headers.
	f, err := elf.NewFile(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("debug/elf: %v", err)
	}
	defer f.Close()
	sec := f.Section(".rodata")
	if sec == nil {
		t.Fatal("no .rodata header")
	}
	raw, err := sec.Data()
	if err != nil || len(raw) != 8 {
		t.Fatalf(".rodata data: %v len %d", err, len(raw))
	}
}

func TestWriteRejectsDataSectionOutsideBlob(t *testing.T) {
	spec, _ := buildSample(t, KindDynamic, 0x400000)
	spec.DataSections = []DataSection{
		{Name: ".rodata", Addr: spec.Base + uint64(len(spec.Blob)) - 4, Size: 8},
	}
	if _, err := Write(spec); err == nil {
		t.Fatal("section spilling past the blob accepted")
	}
}

// TestParsesWithDebugELF double-checks the writer output against the
// standard library's notion of a valid ELF.
func TestParsesWithDebugELF(t *testing.T) {
	spec, _ := buildSample(t, KindDynamic, 0x400000)
	data, err := Write(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.NewFile(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("debug/elf rejects image: %v", err)
	}
	defer f.Close()
	if f.Type != elf.ET_DYN || f.Machine != elf.EM_X86_64 {
		t.Fatalf("header: %v %v", f.Type, f.Machine)
	}
	libs, err := f.ImportedLibraries()
	if err != nil || len(libs) != 1 || libs[0] != "libc.so.6" {
		t.Fatalf("ImportedLibraries: %v %v", libs, err)
	}
	imps, err := f.ImportedSymbols()
	if err != nil || len(imps) != 1 || imps[0].Name != "write" {
		t.Fatalf("ImportedSymbols: %v %v", imps, err)
	}
}

func TestReadFileAndHelpers(t *testing.T) {
	spec, syms := buildSample(t, KindStatic, 0x400000)
	data, err := Write(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sample")
	if err := os.WriteFile(path, data, 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Path != path {
		t.Errorf("path %q", bin.Path)
	}
	if !bin.Contains(syms["_start"]) || bin.Contains(bin.CodeEnd()) {
		t.Error("Contains bounds")
	}
	if _, ok := bin.BytesAt(bin.CodeEnd()); ok {
		t.Error("BytesAt out of range must fail")
	}
	if v, ok := bin.U64At(syms["got_write"]); !ok || v != 0 {
		t.Errorf("U64At got slot: %#x ok=%v", v, ok)
	}
	if _, ok := bin.ExportAddr("nonexistent"); ok {
		t.Error("bogus export resolved")
	}
}

func TestWriteErrors(t *testing.T) {
	if _, err := Write(Spec{Kind: KindStatic}); err == nil {
		t.Error("empty blob must fail")
	}
	if _, err := Write(Spec{Blob: []byte{0x90}}); err == nil {
		t.Error("missing kind must fail")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read([]byte("not an elf at all")); err == nil {
		t.Error("garbage accepted")
	}
	spec, _ := buildSample(t, KindStatic, 0x400000)
	data, _ := Write(spec)
	// Truncations must error, never panic.
	for _, n := range []int{1, 10, 63, 100, len(data) / 2} {
		if n >= len(data) {
			continue
		}
		if _, err := Read(data[:n]); err == nil {
			t.Errorf("truncated to %d accepted", n)
		}
	}
}

// TestReadComputesContentHash: parsing stamps the image's SHA-256 — the
// content address the analysis caches key on — and identical images
// hash identically while any byte change diverges.
func TestReadComputesContentHash(t *testing.T) {
	spec, _ := buildSample(t, KindStatic, 0x400000)
	data, err := Write(spec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	want := hex.EncodeToString(sum[:])

	b1, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Hash != want {
		t.Fatalf("hash: %s, want %s", b1.Hash, want)
	}
	b2, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Hash != b1.Hash {
		t.Fatal("identical images must hash identically")
	}

	// Flip one blob byte: different content, different address.
	spec2 := spec
	spec2.Blob = append([]byte(nil), spec.Blob...)
	spec2.Blob[len(spec2.Blob)-1] ^= 0xFF
	data2, err := Write(spec2)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := Read(data2)
	if err != nil {
		t.Fatal(err)
	}
	if b3.Hash == b1.Hash {
		t.Fatal("differing images must hash differently")
	}
}
