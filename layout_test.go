package bside_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bside"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/testbin"
)

// TestLayoutRefusedByAnalyzeFile: an image the single-segment model
// cannot represent fails the whole analysis with ErrLayout on both
// image frontends, instead of answering with an empty set.
func TestLayoutRefusedByAnalyzeFile(t *testing.T) {
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
	dir := t.TempDir()
	for name, patched := range map[string][]byte{
		"two-segments":       testbin.TwoSegments(img),
		"headers-in-segment": testbin.HeadersInSegment(img),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, patched, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, noMmap := range []bool{false, true} {
			res, err := bside.NewAnalyzer(bside.Options{DisableMmap: noMmap}).AnalyzeFile(path)
			if !errors.Is(err, bside.ErrLayout) || errors.Is(err, bside.ErrMalformed) {
				t.Fatalf("%s (nommap=%v): result %v, error %v; want ErrLayout and not ErrMalformed", name, noMmap, res, err)
			}
		}
	}
}

// TestRealLinkerOutputNeverDecidedEmpty analyzes binaries a real
// compiler and linker produced, skipping whichever is absent: the Go
// toolchain's static gofmt, and /usr/bin/true against the host's
// library directory. Each must be refused with ErrLayout, come back
// fail-open, or come back with a non-empty set. Both make syscalls, so
// a decided, empty answer is unsound.
func TestRealLinkerOutputNeverDecidedEmpty(t *testing.T) {
	var gofmt string
	if out, err := exec.Command("go", "env", "GOROOT").Output(); err == nil {
		gofmt = filepath.Join(strings.TrimSpace(string(out)), "bin", "gofmt")
	}
	for _, c := range []struct {
		name, path, libs string
	}{
		{"gofmt", gofmt, ""},
		{"true", "/usr/bin/true", "/usr/lib/x86_64-linux-gnu"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.path == "" {
				t.Skip("no Go toolchain")
			}
			for _, p := range []string{c.path, c.libs} {
				if _, err := os.Stat(p); p != "" && err != nil {
					t.Skipf("%s not available: %v", c.name, err)
				}
			}
			res, err := bside.NewAnalyzer(bside.Options{LibraryDir: c.libs}).AnalyzeFile(c.path)
			switch {
			case errors.Is(err, bside.ErrLayout):
				t.Logf("refused: %v", err)
			case err != nil:
				t.Fatalf("analysis failed outside ErrLayout: %v", err)
			case !res.FailOpen && len(res.Syscalls) == 0:
				t.Fatal("decided, empty answer for a binary that makes syscalls")
			}
		})
	}
}
