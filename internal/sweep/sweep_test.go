package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bside"
	"bside/internal/asm"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/faults"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// writeTree materializes a small distro-shaped tree: ELF programs in
// nested directories, interleaved with the non-candidates a real tree
// is mostly made of (text, truncated files, a 32-bit ELF header).
// Returns the ELF paths.
func writeTree(t *testing.T, root string) []string {
	t.Helper()
	elfs := make([]string, 0, 3)
	for i, rel := range []string{"bin/prog0", "bin/prog1", "usr/lib/prog2"} {
		bin, err := corpus.BuildProgram(corpus.Profile{
			Name: filepath.Base(rel), Kind: elff.KindStatic,
			HotDirect: 3, HotWrapper: 1, Filler: 8, Seed: int64(9000 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := bin.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		elfs = append(elfs, path)
	}
	junk := map[string][]byte{
		"etc/config.txt": []byte("# not a binary\n"),
		"short":          {0x7f, 'E'},
		// Right magic, wrong class: a 32-bit ELF must be skipped, not
		// failed.
		"lib32/old": {0x7f, 'E', 'L', 'F', 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 0},
	}
	for rel, data := range junk {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return elfs
}

// collect runs one sweep and returns the per-path results.
func collect(t *testing.T, root string, opts Options) (map[string]*Result, *Summary) {
	t.Helper()
	results := make(map[string]*Result)
	opts.OnResult = func(r *Result) { results[r.Path] = r }
	sum, err := Run(context.Background(), root, opts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return results, sum
}

func TestSweepMatchesDirectAnalysis(t *testing.T) {
	root := t.TempDir()
	elfs := writeTree(t, root)

	a := bside.NewAnalyzer(bside.Options{})
	results, sum := collect(t, root, Options{Analyzer: a, Jobs: 2})

	if sum.Files != 6 || sum.ELFs != 3 || sum.Skipped != 3 {
		t.Fatalf("counts: files=%d elfs=%d skipped=%d, want 6/3/3", sum.Files, sum.ELFs, sum.Skipped)
	}
	if sum.Analyzed != 3 || sum.Failed != 0 {
		t.Fatalf("analyzed=%d failed=%d (phases=%v)", sum.Analyzed, sum.Failed, sum.FailurePhases)
	}
	if sum.BinariesPerSec <= 0 || sum.Latency.Count != 3 {
		t.Fatalf("throughput accounting: %+v", sum)
	}

	// Every sweep answer must match a direct, sweep-free analysis.
	direct := bside.NewAnalyzer(bside.Options{})
	for _, path := range elfs {
		res := results[path]
		if res == nil {
			t.Fatalf("no result for %s", path)
		}
		if res.Analysis == nil || res.Phase != "" {
			t.Fatalf("%s: phase=%q err=%q", path, res.Phase, res.Error)
		}
		want, err := direct.AnalyzeFileContext(context.Background(), path)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Analysis.Record(); !reflect.DeepEqual(got, want.Record()) {
			t.Fatalf("%s: sweep %+v vs direct %+v", path, got, want.Record())
		}
	}
}

func TestSweepWarmSecondPass(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root)
	cacheDir := t.TempDir()

	_, cold := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{CacheDir: cacheDir})})
	if cold.Warm != 0 {
		t.Fatalf("cold pass reported %d warm hits", cold.Warm)
	}
	results, warm := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{CacheDir: cacheDir})})
	if warm.Warm != warm.Analyzed || warm.Analyzed != 3 {
		t.Fatalf("warm pass: warm=%d analyzed=%d, want 3/3", warm.Warm, warm.Analyzed)
	}
	if warm.WarmHitRatio != 1 {
		t.Fatalf("warm hit ratio %v, want 1", warm.WarmHitRatio)
	}
	for path, res := range results {
		if !res.Cached {
			t.Fatalf("%s not served from cache on second pass", path)
		}
	}
}

func TestSweepDisableMmapIdentical(t *testing.T) {
	root := t.TempDir()
	elfs := writeTree(t, root)

	mapped, _ := collect(t, root, Options{
		Analyzer: bside.NewAnalyzer(bside.Options{}), Diff: true,
	})
	copied, _ := collect(t, root, Options{
		Analyzer: bside.NewAnalyzer(bside.Options{DisableMmap: true}), Diff: true,
	})
	for _, path := range elfs {
		m, c := mapped[path], copied[path]
		if m == nil || c == nil || m.Analysis == nil || c.Analysis == nil {
			t.Fatalf("missing analysis for %s", path)
		}
		if mr, cr := m.Analysis.Record(), c.Analysis.Record(); !reflect.DeepEqual(mr, cr) || !reflect.DeepEqual(m.Diff, c.Diff) {
			t.Fatalf("%s: mmap and copied sweeps disagree:\n%+v %+v\n%+v %+v", path, mr, m.Diff, cr, c.Diff)
		}
	}
}

func TestSweepBoundedQueueDrainsLargeTree(t *testing.T) {
	// More files than the queue holds: the walker must block and
	// resume, never drop.
	root := t.TempDir()
	writeTree(t, root)
	for i := 0; i < 40; i++ {
		path := filepath.Join(root, "noise", fmt.Sprintf("f%02d", i))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, sum := collect(t, root, Options{
		Analyzer: bside.NewAnalyzer(bside.Options{}), Jobs: 1, QueueDepth: 1,
	})
	if sum.Files != 46 || sum.Analyzed != 3 {
		t.Fatalf("files=%d analyzed=%d, want 46/3", sum.Files, sum.Analyzed)
	}
}

func TestSweepAnalyzeFailureIsCountedNotFatal(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root)
	// A file that sniffs as a candidate but cannot be parsed: header
	// only, no program headers behind it.
	hdr := make([]byte, 64)
	copy(hdr, []byte{0x7f, 'E', 'L', 'F', 2, 1, 1})
	hdr[16], hdr[18] = 2, 62 // ET_EXEC, EM_X86_64
	if err := os.WriteFile(filepath.Join(root, "truncated"), hdr, 0o755); err != nil {
		t.Fatal(err)
	}

	results, sum := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{})})
	if sum.Analyzed != 3 || sum.Failed != 1 || sum.FailurePhases["analyze"] != 1 {
		t.Fatalf("analyzed=%d failed=%d phases=%v", sum.Analyzed, sum.Failed, sum.FailurePhases)
	}
	bad := results[filepath.Join(root, "truncated")]
	if bad == nil || bad.Phase != "analyze" || bad.Error == "" {
		t.Fatalf("failure result: %+v", bad)
	}
}

// TestSweepBooksLayoutRefusals: images the single-segment model cannot
// represent fail under their own "layout" phase, apart from analysis
// failures, and the rest of the tree is analyzed as usual.
func TestSweepBooksLayoutRefusals(t *testing.T) {
	root := t.TempDir()
	elfs := writeTree(t, root)
	img, err := os.ReadFile(elfs[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, patched := range map[string][]byte{
		"two-segments":       testbin.TwoSegments(img),
		"headers-in-segment": testbin.HeadersInSegment(img),
	} {
		if err := os.WriteFile(filepath.Join(root, name), patched, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	results, sum := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{}), Diff: true})
	if sum.Analyzed != 3 || sum.Failed != 2 || sum.FailurePhases["layout"] != 2 || len(sum.FailurePhases) != 1 {
		t.Fatalf("analyzed=%d failed=%d phases=%v", sum.Analyzed, sum.Failed, sum.FailurePhases)
	}
	for _, name := range []string{"two-segments", "headers-in-segment"} {
		if r := results[filepath.Join(root, name)]; r == nil || r.Phase != "layout" ||
			!strings.Contains(r.Error, "ELF layout not supported") {
			t.Fatalf("%s: %+v", name, r)
		}
	}
}

// TestSweepUnsupportedArchIsSkippedNotFailed: a valid ELF executable
// for a foreign machine is not a parse failure and not an anonymous
// skip — it lands in the per-architecture skip histogram, so the
// summary says how much of a mixed-arch tree the analyzer covered.
func TestSweepUnsupportedArchIsSkippedNotFailed(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root)
	foreign := func(name string, class byte, machine uint16) {
		hdr := make([]byte, 64)
		copy(hdr, []byte{0x7f, 'E', 'L', 'F', class, 1, 1})
		hdr[16] = 2 // ET_EXEC
		hdr[18] = byte(machine)
		hdr[19] = byte(machine >> 8)
		if err := os.WriteFile(filepath.Join(root, name), hdr, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	foreign("arm64-bin", 2, 183) // AArch64
	foreign("arm64-too", 2, 183) // second of the same arch
	foreign("riscv-bin", 2, 243) // RISC-V
	foreign("compat-32", 1, 3)   // ELFCLASS32 i386

	results, sum := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{})})
	if sum.Failed != 0 || len(sum.FailurePhases) != 0 {
		t.Fatalf("foreign-arch ELFs counted as failures: failed=%d phases=%v",
			sum.Failed, sum.FailurePhases)
	}
	// i386-elf32 is 2: the tree's own lib32/old plus compat-32 — the
	// anonymous 32-bit skip writeTree always contained is now visible.
	want := map[string]int64{"aarch64": 2, "riscv": 1, "i386-elf32": 2}
	if !reflect.DeepEqual(sum.SkippedArches, want) {
		t.Fatalf("arch histogram: %v, want %v", sum.SkippedArches, want)
	}
	if sum.Analyzed != 3 {
		t.Fatalf("analyzed=%d, want the tree's 3 x86-64 binaries", sum.Analyzed)
	}
	for _, name := range []string{"arm64-bin", "riscv-bin", "compat-32"} {
		if results[filepath.Join(root, name)] != nil {
			t.Fatalf("%s: skipped file must not emit a result", name)
		}
	}
}

// TestSweepDiffFlagsResolvedScanOnly plants the one disagreement shape
// -diff exists to catch: a dead function carrying an immediate-loaded
// syscall. The linear scanner resolves it; B-Side's reachability
// rightly excludes it; the sweep must surface the mismatch instead of
// silently trusting either side.
func TestSweepDiffFlagsResolvedScanOnly(t *testing.T) {
	root := t.TempDir()
	b := asm.New()
	b.Func("_start")
	b.MovRegImm32(x86.RAX, 60)
	b.Syscall()
	b.Ret()
	b.Func("dead")
	b.MovRegImm32(x86.RAX, 123)
	b.Syscall()
	b.Ret()
	b.Label("__code_end")
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	img, syms, err := b.Finalize(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	data, err := elff.Write(elff.Spec{
		Kind: elff.KindStatic, Base: 0x400000, Entry: syms["_start"],
		Blob: img, CodeSize: syms["__code_end"] - 0x400000,
		Symbols: map[string]uint64{"_start": syms["_start"], "dead": syms["dead"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "planted")
	if err := os.WriteFile(path, data, 0o755); err != nil {
		t.Fatal(err)
	}

	results, sum := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{}), Diff: true})
	res := results[path]
	if res == nil || res.Diff == nil || res.Analysis == nil {
		t.Fatalf("no diff result: %+v", res)
	}
	if !reflect.DeepEqual(res.Analysis.Syscalls, []uint64{60}) {
		t.Fatalf("B-Side set: %v, want [60]", res.Analysis.Syscalls)
	}
	if !reflect.DeepEqual(res.Diff.ScanOnly, []uint64{123}) {
		t.Fatalf("scan-only: %+v, want [123]", res.Diff)
	}
	if res.Diff.ScanSites != 2 || res.Diff.ScanResolved != 2 {
		t.Fatalf("scan sites: %+v", res.Diff)
	}
	if sum.ScanDisagreements != 1 {
		t.Fatalf("summary disagreements: %d", sum.ScanDisagreements)
	}
}

// TestSweepDiffFlagsEmptyAnswerWithSites: a decided, empty answer from
// a binary the scanner found a syscall site in is a disagreement even
// when the scanner cannot resolve the site's number — the shape a
// reader that misses the code altogether would produce.
func TestSweepDiffFlagsEmptyAnswerWithSites(t *testing.T) {
	root := t.TempDir()
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.Ret()
		b.Func("dead")
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	}, nil)
	path := filepath.Join(root, "blind")
	if err := bin.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	results, sum := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{}), Diff: true})
	res := results[path]
	if res == nil || res.Diff == nil || res.Analysis == nil || len(res.Analysis.Syscalls) != 0 || res.Analysis.FailOpen {
		t.Fatalf("want a decided, empty answer with a diff: %+v", res)
	}
	if res.Diff.ScanSites != 1 || len(res.Diff.ScanOnly) != 0 {
		t.Fatalf("scan: %+v, want one unresolved site", res.Diff)
	}
	if sum.ScanDisagreements != 1 {
		t.Fatalf("summary disagreements: %d, want 1", sum.ScanDisagreements)
	}
}

// TestSweepDiffAgreesOnCorpus: on corpus binaries — no dead code with
// syscalls — every scan-resolved number is inside B-Side's set.
func TestSweepDiffAgreesOnCorpus(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root)
	results, sum := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{}), Diff: true})
	if sum.ScanDisagreements != 0 {
		for p, r := range results {
			if r.Diff != nil && len(r.Diff.ScanOnly) > 0 {
				t.Errorf("%s: scan-only %v (bside %v)", p, r.Diff.ScanOnly, r.Analysis.Syscalls)
			}
		}
		t.Fatalf("disagreements on clean corpus: %d", sum.ScanDisagreements)
	}
	for p, r := range results {
		if r.Diff == nil {
			t.Fatalf("%s: diff missing", p)
		}
		if r.Diff.ScanSites == 0 {
			t.Fatalf("%s: scanner saw no sites", p)
		}
	}
}

func TestSweepProgressCallback(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root)
	var ticks []int64
	opts := Options{
		Analyzer: bside.NewAnalyzer(bside.Options{}), Jobs: 1,
		ProgressEvery: 1,
		OnProgress:    func(s *Summary) { ticks = append(ticks, s.Analyzed+s.Failed) },
	}
	if _, err := Run(context.Background(), root, opts); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 3 {
		t.Fatalf("progress ticks: %v, want one per binary", ticks)
	}
	if !sort.SliceIsSorted(ticks, func(i, j int) bool { return ticks[i] < ticks[j] }) {
		t.Fatalf("progress not monotonic: %v", ticks)
	}
}

func TestSweepRequiresAnalyzer(t *testing.T) {
	if _, err := Run(context.Background(), t.TempDir(), Options{}); err == nil {
		t.Fatal("nil analyzer must be rejected")
	}
	a := bside.NewAnalyzer(bside.Options{})
	if _, err := Run(context.Background(), "/nonexistent-sweep-root", Options{Analyzer: a}); err == nil {
		t.Fatal("missing root must be rejected")
	}
}

// TestSweepPoisonedWorkerDoesNotKillPool is the crash-containment
// contract at fleet scale: one binary whose analysis panics (injected
// at the pipeline stage seam, keyed by that binary's content hash)
// must cost exactly its own NDJSON line — counted under phase "panic"
// in the summary — while every other binary's line is byte-identical
// to a clean run of the same tree.
func TestSweepPoisonedWorkerDoesNotKillPool(t *testing.T) {
	root := t.TempDir()
	elfs := writeTree(t, root)

	// canonical renders a result as its NDJSON line with the wall clock
	// zeroed — the only field allowed to differ between runs.
	canonical := func(r *Result) string {
		c := *r
		c.Ms = 0
		data, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	clean, cleanSum := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{}), Jobs: 2})
	if cleanSum.Failed != 0 {
		t.Fatalf("clean run failed: %v", cleanSum.FailurePhases)
	}

	poison := elfs[1]
	pb, err := elff.ReadFile(poison)
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(faults.Rule{Point: faults.Stage, Match: pb.Hash, Panic: true})
	defer restore()

	results, sum := collect(t, root, Options{Analyzer: bside.NewAnalyzer(bside.Options{}), Jobs: 2})
	if sum.Failed != 1 || sum.FailurePhases["panic"] != 1 {
		t.Fatalf("summary: failed=%d phases=%v, want one panic", sum.Failed, sum.FailurePhases)
	}
	if sum.Analyzed != int64(len(elfs)-1) {
		t.Fatalf("analyzed=%d, want %d — the pool stopped early", sum.Analyzed, len(elfs)-1)
	}

	bad := results[poison]
	if bad == nil || bad.Phase != "panic" || !strings.Contains(bad.Error, "panicked") {
		t.Fatalf("poison result: %+v", bad)
	}
	for _, path := range elfs {
		if path == poison {
			continue
		}
		got, want := results[path], clean[path]
		if got == nil || want == nil {
			t.Fatalf("missing result for %s", path)
		}
		if g, w := canonical(got), canonical(want); g != w {
			t.Fatalf("%s: poisoned-run line differs from clean run:\n got %s\nwant %s", path, g, w)
		}
	}
}
