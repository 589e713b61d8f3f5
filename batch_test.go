package bside

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// batchFixture writes one shared library and n distinct executables
// importing it, returning the executable paths and the library dir.
func batchFixture(t testing.TB, n int) (paths []string, libDir string) {
	t.Helper()
	dir := t.TempDir()
	libDir = filepath.Join(dir, "libs")
	if err := os.MkdirAll(libDir, 0o755); err != nil {
		t.Fatal(err)
	}
	lib, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0000000000, func(b *asm.Builder) {
		b.Func("write")
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.Ret()
		b.Func("exitp")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{
			{Name: "write", Addr: syms["write"]},
			{Name: "exitp", Addr: syms["exitp"]},
		}
	})
	mustWrite(t, lib, filepath.Join(libDir, "libc.so"))

	for i := 0; i < n; i++ {
		main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
			b.Func("_start")
			b.MovRegImm32(x86.R10, uint32(9000+i)) // differentiate images
			b.CallLabel("stub_write")
			b.MovRegImm32(x86.RAX, 60)
			b.Syscall()
			b.Ret()
			b.Func("stub_write")
			b.JmpMemRIP("got_write")
			b.Label("__code_end")
			b.Align(8)
			b.Label("got_write")
			b.Quad(0)
		}, func(spec *elff.Spec, syms map[string]uint64) {
			spec.Imports = []elff.Import{{Name: "write", SlotAddr: syms["got_write"]}}
			spec.Needed = []string{"libc.so"}
		})
		path := filepath.Join(dir, fmt.Sprintf("bin%02d", i))
		mustWrite(t, main, path)
		paths = append(paths, path)
	}
	return paths, libDir
}

func TestAnalyzeAllColdThenWarm(t *testing.T) {
	paths, libDir := batchFixture(t, 5)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// Cold: everything computed, results correct, nothing cached yet.
	cold := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	coldRes, err := cold.AnalyzeAll(paths, BatchOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(coldRes) != len(paths) {
		t.Fatalf("results: %d", len(coldRes))
	}
	for i, res := range coldRes {
		if res.Err != nil {
			t.Fatalf("%s: %v", paths[i], res.Err)
		}
		if res.Path != paths[i] {
			t.Fatalf("result %d out of order: %s", i, res.Path)
		}
		if res.Cached {
			t.Fatalf("%s: cold run served from cache", res.Path)
		}
		if !reflect.DeepEqual(res.Syscalls, []uint64{1, 60}) || res.FailOpen {
			t.Fatalf("%s: %v failopen=%v", res.Path, res.Syscalls, res.FailOpen)
		}
	}
	if st := cold.CacheStats(); st.Stores == 0 {
		t.Fatalf("cold run persisted nothing: %+v", st)
	}

	// Warm: a fresh analyzer (fresh process, in effect) serves every
	// binary from disk with identical results.
	warm := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	warmRes, err := warm.AnalyzeAll(paths, BatchOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warmRes {
		if res.Err != nil {
			t.Fatalf("%s: %v", paths[i], res.Err)
		}
		if !res.Cached {
			t.Fatalf("%s: warm run missed the cache", res.Path)
		}
		if !reflect.DeepEqual(res.Record(), coldRes[i].Record()) {
			t.Fatalf("%s: warm result drifted: %+v vs %+v", res.Path, res.Record(), coldRes[i].Record())
		}
	}
	st := warm.CacheStats()
	if st.Hits != uint64(len(paths)) || st.Misses != 0 {
		t.Fatalf("warm stats: %+v", st)
	}

	// Cached analyses carry no CFG: phases must refuse, disassembly is
	// empty, and both say so rather than panic.
	if _, err := warmRes[0].Phases(PhaseOptions{}); err == nil {
		t.Fatal("phases on a cache-served analysis must error")
	}
	if warmRes[0].Disassembly() != "" {
		t.Fatal("cache-served disassembly must be empty")
	}
}

func TestAnalyzeAllRecordsPerBinaryErrors(t *testing.T) {
	paths, libDir := batchFixture(t, 2)
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("not an elf"), 0o755); err != nil {
		t.Fatal(err)
	}
	all := append([]string{paths[0], junk, "/nonexistent/binary"}, paths[1])

	a := NewAnalyzer(Options{LibraryDir: libDir})
	results, err := a.AnalyzeAll(all, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("good binaries failed: %v %v", results[0].Err, results[3].Err)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatal("bad binaries must record errors")
	}
	if results[1].Path != junk {
		t.Fatalf("error result misattributed: %s", results[1].Path)
	}
}

func TestAnalyzeAllToleratesCorruptCache(t *testing.T) {
	paths, libDir := batchFixture(t, 3)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	first := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	if _, err := first.AnalyzeAll(paths, BatchOptions{}); err != nil {
		t.Fatal(err)
	}

	// Truncate every cache file: the next run must silently re-analyze.
	err := filepath.Walk(cacheDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.Truncate(path, info.Size()/3)
	})
	if err != nil {
		t.Fatal(err)
	}

	second := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	results, err := second.AnalyzeAll(paths, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Path, res.Err)
		}
		if res.Cached {
			t.Fatalf("%s: corrupt entry served", res.Path)
		}
		if !reflect.DeepEqual(res.Syscalls, []uint64{1, 60}) {
			t.Fatalf("%s: %v", res.Path, res.Syscalls)
		}
	}

	// And the re-analysis rewrote usable entries.
	third := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	results, err = third.AnalyzeAll(paths, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Cached {
			t.Fatalf("%s: repaired cache not used", res.Path)
		}
	}
}

func TestAnalyzeAllUnusableCacheDir(t *testing.T) {
	paths, libDir := batchFixture(t, 1)
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: filepath.Join(file, "sub")})
	if _, err := a.AnalyzeAll(paths, BatchOptions{}); err == nil {
		t.Fatal("unusable cache dir must surface as an error")
	}
	if _, err := a.AnalyzeFile(paths[0]); err == nil {
		t.Fatal("unusable cache dir must surface from AnalyzeFile too")
	}
}

// TestAnalyzeAllStreamsResults: OnResult must fire once per binary as
// analyses complete, before AnalyzeAll returns, with the same values
// the result slice carries — the streaming surface batch mode flushes
// JSON lines through.
func TestAnalyzeAllStreamsResults(t *testing.T) {
	paths, libDir := batchFixture(t, 6)
	bad := filepath.Join(t.TempDir(), "missing")
	all := append(append([]string{}, paths...), bad)

	a := NewAnalyzer(Options{LibraryDir: libDir})
	var streamed []*Analysis
	results, err := a.AnalyzeAll(all, BatchOptions{
		Jobs: 3,
		OnResult: func(res *Analysis) {
			// Serialized by AnalyzeAll: plain append must be safe.
			streamed = append(streamed, res)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(all) {
		t.Fatalf("streamed %d of %d results", len(streamed), len(all))
	}
	byPath := make(map[string]*Analysis, len(streamed))
	for _, res := range streamed {
		if byPath[res.Path] != nil {
			t.Fatalf("%s streamed twice", res.Path)
		}
		byPath[res.Path] = res
	}
	for i, res := range results {
		if byPath[all[i]] != res {
			t.Fatalf("%s: streamed value is not the returned value", all[i])
		}
	}
	if byPath[bad].Err == nil {
		t.Fatal("failed binary must stream its error")
	}
}

// TestAnalyzeFileWithCacheKeepsPhases: a cache miss still returns a
// full analysis, so phases work on the first run even with caching on.
func TestAnalyzeFileWithCacheKeepsPhases(t *testing.T) {
	paths, libDir := batchFixture(t, 1)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	a := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	res, err := a.AnalyzeFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("first run cannot be cached")
	}
	if _, err := res.Phases(PhaseOptions{}); err != nil {
		t.Fatalf("phases on a computed analysis: %v", err)
	}
}
