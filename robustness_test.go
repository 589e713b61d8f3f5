package bside_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"bside"
	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/faults"
	"bside/internal/serve"
	"bside/internal/sweep"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// malformedCorpus returns the checked-in hostile images.
func malformedCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("internal", "elff", "testdata", "malformed", "*.elf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("malformed corpus unavailable: %v (%d entries)", err, len(paths))
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// tinyBinary writes a minimal valid static binary and returns its path
// and content hash.
func tinyBinary(t *testing.T, dir string, seed byte) (string, string) {
	t.Helper()
	data, err := elff.Write(elff.Spec{
		Kind:  elff.KindStatic,
		Base:  0x400000,
		Entry: 0x400000,
		Blob:  []byte{0x0f, 0x05, 0xc3, seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bin-"+string('a'+rune(seed%26)))
	if err := os.WriteFile(path, data, 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := elff.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	return path, bin.Hash
}

// TestMalformedCorpusAllEntryPaths is the acceptance criterion in one
// test: every corpus entry returns a structured error — no panic, no
// process exit — through the library path (AnalyzeBytes/AnalyzeFile),
// the service path (POST /analyze), and the fleet path (bside sweep).
func TestMalformedCorpusAllEntryPaths(t *testing.T) {
	corpus := malformedCorpus(t)
	a := bside.NewAnalyzer(bside.Options{})

	// Library path, bytes and file frontends both.
	dir := t.TempDir()
	for name, data := range corpus {
		if _, err := a.AnalyzeBytes(data); err == nil {
			t.Errorf("AnalyzeBytes(%s) accepted hostile image", name)
		} else if _, isPanic := bside.IsPanic(err); isPanic {
			t.Errorf("AnalyzeBytes(%s) panicked instead of rejecting: %v", name, err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AnalyzeFile(path); err == nil {
			t.Errorf("AnalyzeFile(%s) accepted hostile image", name)
		}
	}

	// Service path: every entry answers 4xx — client-side garbage — and
	// the daemon stays up throughout.
	srv := serve.New(serve.Config{Backend: bside.NewAnalyzer(bside.Options{})})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for name, data := range corpus {
		resp, err := http.Post(ts.URL+"/analyze", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: daemon died: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d (%s), want 4xx", name, resp.StatusCode, body)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after corpus: %v", err)
	} else {
		resp.Body.Close()
	}

	// Fleet path: a tree holding the whole corpus plus one good binary.
	// The sweep finishes, analyzes the good one, and accounts for every
	// corpus file as a skip (foreign arch, not a candidate) or a phased
	// failure — never a crash.
	root := t.TempDir()
	for name, data := range corpus {
		if err := os.WriteFile(filepath.Join(root, name), data, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	goodPath, _ := tinyBinary(t, root, 9)
	var goodLine *sweep.Result
	sum, err := sweep.Run(context.Background(), root, sweep.Options{
		Analyzer: bside.NewAnalyzer(bside.Options{}),
		OnResult: func(r *sweep.Result) {
			if r.Path == goodPath {
				goodLine = r
			} else if r.Phase == "" {
				t.Errorf("%s: hostile file swept without a failure phase", r.Path)
			}
		},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sum.Analyzed != 1 || goodLine == nil || goodLine.Phase != "" {
		t.Fatalf("good binary not analyzed: analyzed=%d line=%+v", sum.Analyzed, goodLine)
	}
	if sum.Skipped+sum.Failed != int64(len(corpus)) {
		t.Fatalf("corpus accounting: skipped=%d failed=%d, want %d total", sum.Skipped, sum.Failed, len(corpus))
	}
}

// fanOutBomb is a static image of k `lea rax, [rip+fI]; call rax`
// pairs and k one-instruction functions, about 10 bytes of code per
// pair. Each call may reach every lea'd function, so a graph that wired
// every indirect edge would hold k×k of them: 16 M at k = 4000, from
// 45 KB of image.
func fanOutBomb(t *testing.T, k int) []byte {
	t.Helper()
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < k; i++ {
			b.Lea(x86.RAX, fmt.Sprintf("f%d", i))
			b.CallReg(x86.RAX)
		}
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		for i := 0; i < k; i++ {
			b.Label(fmt.Sprintf("f%d", i))
			b.Ret()
		}
	}, nil)
	data, err := elff.Write(bin.Spec())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFanOutAllocationBomb: indirect fan-out edges count against the
// CFG budget, so an upload of k lea/call pairs fails with the budget
// instead of allocating k×k edges, and the daemon stays healthy.
func TestFanOutAllocationBomb(t *testing.T) {
	data := fanOutBomb(t, 4000)
	a := bside.NewAnalyzer(bside.Options{})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := a.AnalyzeBytes(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("AnalyzeBytes answered a fan-out bomb; want the CFG budget")
	}
	if _, isPanic := bside.IsPanic(err); isPanic {
		t.Fatalf("AnalyzeBytes panicked: %v", err)
	}
	// The same bound TestAllocationBomb holds the ELF parser to.
	const allocBudget = 16 << 20
	grew := after.TotalAlloc - before.TotalAlloc
	if grew > allocBudget {
		t.Fatalf("a %d-byte image allocated %d bytes (budget %d)", len(data), grew, allocBudget)
	}
	t.Logf("%d-byte image: %v, %d bytes allocated", len(data), err, grew)

	ts := httptest.NewServer(serve.New(serve.Config{Backend: a}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/analyze", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("daemon died: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("POST /analyze: status %d (%s), want 422", resp.StatusCode, body)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after the bomb: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestPanickedAnalysisIsNeverCached pins the cache-poisoning rule: a
// contained panic stores nothing, and once the fault clears the same
// image analyzes fresh and correctly.
func TestPanickedAnalysisIsNeverCached(t *testing.T) {
	dir := t.TempDir()
	cacheDir := t.TempDir()
	path, hash := tinyBinary(t, dir, 3)

	a, err := bside.NewAnalyzerErr(bside.Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(faults.Rule{Point: faults.Stage, Match: hash, Panic: true})
	_, aerr := a.AnalyzeFile(path)
	restore()
	pe, ok := bside.IsPanic(aerr)
	if !ok {
		t.Fatalf("expected contained panic, got %v", aerr)
	}
	if pe.Stage == "" || pe.Hash != hash {
		t.Errorf("panic context: stage=%q hash=%q", pe.Stage, pe.Hash)
	}
	if st := a.CacheStats(); st.Stores != 0 {
		t.Fatalf("panicked analysis stored %d cache entries", st.Stores)
	}

	res, err := a.AnalyzeFile(path)
	if err != nil {
		t.Fatalf("re-analysis after fault cleared: %v", err)
	}
	if res.Cached {
		t.Fatal("re-analysis served from cache — a panicked result was stored somewhere")
	}
}

// TestBatchPoisonIsolation: in one AnalyzeAll batch, the poisoned
// binary carries a PanicError in its slot and every other binary
// analyzes normally.
func TestBatchPoisonIsolation(t *testing.T) {
	dir := t.TempDir()
	poisonPath, poisonHash := tinyBinary(t, dir, 11)
	cleanPath, _ := tinyBinary(t, dir, 12)

	restore := faults.Activate(faults.Rule{Point: faults.Stage, Match: poisonHash, Panic: true})
	defer restore()

	a := bside.NewAnalyzer(bside.Options{})
	results, err := a.AnalyzeAll([]string{poisonPath, cleanPath}, bside.BatchOptions{Jobs: 2})
	if err != nil {
		t.Fatalf("batch-level error for a per-binary panic: %v", err)
	}
	if _, ok := bside.IsPanic(results[0].Err); !ok {
		t.Fatalf("poison slot: %+v", results[0])
	}
	if results[1].Err != nil {
		t.Fatalf("clean slot damaged by peer's panic: %+v", results[1])
	}
}

// TestErrMalformedClassification: the public sentinel matches every
// parse rejection, and does not match analysis failures.
func TestErrMalformedClassification(t *testing.T) {
	a := bside.NewAnalyzer(bside.Options{})
	_, err := a.AnalyzeBytes([]byte("not an elf at all"))
	if !errors.Is(err, bside.ErrMalformed) {
		t.Fatalf("garbage not classified bside.ErrMalformed: %v", err)
	}
	if !strings.Contains(err.Error(), "malformed") {
		t.Errorf("error message does not say malformed: %v", err)
	}
}
