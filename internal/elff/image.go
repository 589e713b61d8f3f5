package elff

import (
	"fmt"
	"os"
)

// Image is an opened ELF file's raw bytes plus how they were obtained.
// On platforms with mmap support the data is a read-only, privately
// mapped view of the file — the analyzer's decode arena and hasher
// consume it without the kernel ever copying the image into the Go
// heap. Close releases the mapping; after Close the Data slice (and
// anything aliasing it, see ReadPrehashedAlias) must not be touched.
type Image struct {
	Path   string
	Data   []byte
	mapped bool
}

// Mapped reports whether Data is a memory-mapped view (true) or an
// in-heap copy (false). Heap copies need no cleanup beyond GC; mapped
// views must be Closed and never outlive their Image.
func (im *Image) Mapped() bool { return im != nil && im.mapped }

// Close releases the image's backing. For mapped images this unmaps
// the view — any retained alias into Data becomes invalid. For in-heap
// images it only drops the reference. Close is idempotent.
func (im *Image) Close() error {
	if im == nil || im.Data == nil {
		return nil
	}
	data, mapped := im.Data, im.mapped
	im.Data, im.mapped = nil, false
	if mapped {
		return munmapFile(data)
	}
	return nil
}

// OpenMapped opens the file at path for read-only analysis, preferring
// a zero-copy mmap view and falling back to an in-heap read wherever
// mapping is unavailable (non-Linux builds, empty files, irregular
// files). Callers own the returned image and must Close it.
func OpenMapped(path string) (*Image, error) { return openImage(path, false) }

// OpenCopied reads the file into the heap unconditionally — the
// portable fallback path, also used to benchmark the mapped frontend
// against the copying one and by tooling that must outlive the file.
func OpenCopied(path string) (*Image, error) { return openImage(path, true) }

func openImage(path string, noMmap bool) (*Image, error) {
	if !noMmap {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("elff: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("elff: %w", err)
		}
		if st.Mode().IsRegular() && st.Size() > 0 {
			data, mapped, err := mmapFile(f, st.Size())
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("elff: mmap %s: %w", path, err)
			}
			if mapped {
				// SIGBUS containment: touching mapped pages past the
				// file's current EOF is a process-killing fault, not an
				// error we can recover. Re-stat through the same
				// descriptor after mapping — if the file shrank between
				// the first stat and the mmap, drop the view and fall
				// back to the copying path, which reads whatever bytes
				// actually exist. A file truncated *after* this check is
				// outside the frontier static analysis can defend
				// (callers sweeping live trees own file stability, per
				// OpenMapped's contract).
				st2, err := f.Stat()
				f.Close()
				if err != nil || st2.Size() < st.Size() {
					_ = munmapFile(data)
				} else {
					return &Image{Path: path, Data: data, mapped: true}, nil
				}
			} else {
				// The mapping survives the descriptor; close it either way.
				f.Close()
			}
		} else {
			f.Close()
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("elff: %w", err)
	}
	return &Image{Path: path, Data: data}, nil
}

// OpenBinary opens, hashes and parses the ELF at path through the
// image layer: one open, one hash, and — when the platform maps and
// the segment has no trailing BSS (Filesz == Memsz) — a Blob
// that aliases the mapping instead of copying it. The returned Binary
// owns its image; call ReleaseImage once the segment bytes are no
// longer needed. noMmap forces the in-heap fallback (identical
// results, one extra copy).
func OpenBinary(path string, noMmap bool) (*Binary, error) {
	im, err := openImage(path, noMmap)
	if err != nil {
		return nil, err
	}
	b, err := readHashed(im.Data, "", true)
	if err != nil {
		_ = im.Close()
		return nil, fmt.Errorf("elff: %s: %w", path, err)
	}
	b.Path = path
	b.img = im
	return b, nil
}

// Image returns the backing image opened by OpenBinary, nil for
// binaries parsed from caller-provided memory.
func (b *Binary) Image() *Image { return b.img }

// ReleaseImage detaches the binary from its backing image. A mapped
// image is unmapped, and because Blob may alias the mapping, Blob is
// cleared first — after ReleaseImage only the binary's metadata
// (Hash, Kind, Entry, Needed, symbol tables) remains usable. For
// in-heap images and in-memory binaries this is a cheap no-op beyond
// dropping references. Idempotent.
func (b *Binary) ReleaseImage() error {
	im := b.img
	if im == nil {
		return nil
	}
	b.img = nil
	if im.mapped {
		b.Blob = nil
	}
	return im.Close()
}
