package elff_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/testbin"
)

// TestLayoutRefused: a valid image the single-segment model cannot
// represent — two PT_LOADs, or .text past the segment base — is
// refused with ErrLayout, never ErrMalformed and never parsed into a
// partial view, by the in-memory reader and both file frontends.
func TestLayoutRefused(t *testing.T) {
	bin, err := corpus.BuildProgram(corpus.Profile{
		Name: "layout", Kind: elff.KindStatic, HotDirect: 3, HotWrapper: 1, Filler: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := elff.Write(bin.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := elff.Read(img); err != nil {
		t.Fatalf("unpatched image refused: %v", err)
	}
	for name, patched := range map[string][]byte{
		"two-segments":       testbin.TwoSegments(img),
		"headers-in-segment": testbin.HeadersInSegment(img),
	} {
		t.Run(name, func(t *testing.T) {
			check := func(entry string, err error) {
				t.Helper()
				if !errors.Is(err, elff.ErrLayout) || errors.Is(err, elff.ErrMalformed) {
					t.Fatalf("%s: %v, want ErrLayout and not ErrMalformed", entry, err)
				}
			}
			_, err := elff.Read(patched)
			check("Read", err)
			path := filepath.Join(t.TempDir(), name)
			if err := os.WriteFile(path, patched, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, noMmap := range []bool{false, true} {
				b, err := elff.OpenBinary(path, noMmap)
				if err == nil {
					b.ReleaseImage()
				}
				check(fmt.Sprintf("OpenBinary(noMmap=%v)", noMmap), err)
			}
		})
	}
}
