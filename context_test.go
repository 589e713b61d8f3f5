package bside

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bside/internal/elff"
)

func TestNewAnalyzerErr(t *testing.T) {
	if _, err := NewAnalyzerErr(Options{}); err != nil {
		t.Fatalf("plain options rejected: %v", err)
	}
	// A CacheDir that cannot exist (a path under a regular file) must
	// fail at construction, not on the first analysis.
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnalyzerErr(Options{CacheDir: filepath.Join(file, "cache")}); err == nil {
		t.Fatal("unusable CacheDir accepted at construction")
	}
	// The legacy constructor defers the same error to the first call.
	a := NewAnalyzer(Options{CacheDir: filepath.Join(file, "cache")})
	if _, err := a.AnalyzeBytes([]byte("junk")); err == nil {
		t.Fatal("deferred cache error lost")
	}
}

func TestAnalyzeContextCancellation(t *testing.T) {
	path, libDir := writeCorpusApp(t)
	a := NewAnalyzer(Options{LibraryDir: libDir})

	// A dead context aborts before any work, and the error is
	// branchable with errors.Is.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.AnalyzeFileContext(ctx, path); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled analysis error: %v", err)
	}
	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := a.AnalyzeFileContext(dctx, path); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired analysis error: %v", err)
	}
	// A live context changes nothing: same result as the plain API.
	want, err := a.AnalyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.AnalyzeFileContext(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Syscalls, got.Syscalls) || want.FailOpen != got.FailOpen {
		t.Fatal("context path diverged from the plain path")
	}
}

func TestAnalyzeAllContextCancellation(t *testing.T) {
	path, libDir := writeCorpusApp(t)
	a := NewAnalyzer(Options{LibraryDir: libDir})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	paths := []string{path, path, path}
	results, err := a.AnalyzeAllContext(ctx, paths, BatchOptions{Jobs: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error: %v", err)
	}
	if len(results) != len(paths) {
		t.Fatalf("results not parallel to paths: %d", len(results))
	}
	for i, res := range results {
		if res == nil || !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("result %d: %+v", i, res)
		}
	}
}

func TestLookupByHash(t *testing.T) {
	path, libDir := writeCorpusApp(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := elff.ReadIdentity(data)
	if err != nil {
		t.Fatal(err)
	}

	// Without a cache there is nothing to look up.
	if _, ok := NewAnalyzer(Options{LibraryDir: libDir}).Lookup(id.Hash); ok {
		t.Fatal("Lookup hit without a cache")
	}

	cacheDir := t.TempDir()
	a := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	want, err := a.AnalyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cold analyzer, warm store: the hash alone retrieves the result —
	// the deployment-time lookup of the paper's decoupled design.
	b := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	got, ok := b.Lookup(id.Hash)
	if !ok {
		t.Fatal("warm Lookup missed")
	}
	if !got.Cached {
		t.Fatal("Lookup result not marked cached")
	}
	if !reflect.DeepEqual(got.Syscalls, want.Syscalls) || got.FailOpen != want.FailOpen ||
		got.Wrappers != want.Wrappers || !reflect.DeepEqual(got.Imports, want.Imports) {
		t.Fatalf("Lookup diverged from analysis: %+v vs %+v", got, want)
	}
	// Unknown hashes miss.
	if _, ok := b.Lookup("0000000000000000000000000000000000000000000000000000000000000000"); ok {
		t.Fatal("Lookup hit on unknown hash")
	}
}

// TestLookupStaysInsideCache: a Lookup hash is caller input (serve's
// `?hash=`). One that is not a SHA-256 in lowercase hex must be a miss
// before any tier is probed: it must neither serve an envelope planted
// outside the cache directory through a relative path, nor count a
// directory it happens to name as a disk error.
func TestLookupStaysInsideCache(t *testing.T) {
	path, libDir := writeCorpusApp(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := elff.ReadIdentity(data)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cacheDir := filepath.Join(root, "cache")
	if _, err := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir}).AnalyzeFile(path); err != nil {
		t.Fatal(err)
	}
	// Plant a copy of the valid program entry outside the cache
	// directory, refiled under the key that reaches it.
	raw, err := os.ReadFile(filepath.Join(cacheDir, "program", id.Hash[:2], id.Hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	const evil = "../outside/evil"
	env["sha256"] = evil
	planted, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(root, "outside")
	if err := os.MkdirAll(filepath.Join(outside, "dir.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outside, "evil.json"), planted, 0o644); err != nil {
		t.Fatal(err)
	}

	a := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	if got, ok := a.Lookup(evil); ok {
		t.Fatalf("Lookup served an envelope from outside the cache: %+v", got)
	}
	if _, ok := a.Lookup("../outside/dir"); ok {
		t.Fatal("Lookup hit on a directory")
	}
	if n := a.CacheStats().CacheIOErrors; n != 0 {
		t.Fatalf("malformed keys counted %d disk errors", n)
	}
	if _, ok := a.Lookup(id.Hash); !ok {
		t.Fatal("the valid hash missed")
	}
}
