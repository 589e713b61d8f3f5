package bside

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus the §4.7 automaton-vs-naive phase-detection
// ablation and micro-benchmarks for the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The corpus is generated once and shared; benchmarks measure the
// analysis, not the generation.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/emu"
	"bside/internal/eval"
	"bside/internal/ident"
	"bside/internal/phases"
	"bside/internal/x86"
)

var (
	benchOnce    sync.Once
	benchApps    *corpus.Set
	benchDebian  *corpus.Set
	benchAppEval []*eval.AppEval
	benchDebEval *eval.DebianEval
	benchErr     error
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchApps, benchErr = corpus.GenerateApps()
		if benchErr != nil {
			return
		}
		benchAppEval, benchErr = eval.EvalApps(benchApps)
		if benchErr != nil {
			return
		}
		benchDebian, benchErr = corpus.GenerateDebian(42)
		if benchErr != nil {
			return
		}
		benchDebEval, benchErr = eval.EvalDebian(benchDebian)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

// BenchmarkFigure7 regenerates Figure 7: all three tools over the six
// applications, validated against the emulator ground truth.
func BenchmarkFigure7(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps, err := eval.EvalApps(benchApps)
		if err != nil {
			b.Fatal(err)
		}
		if out := eval.Figure7(apps); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable1 regenerates the F1-score table from the per-app runs.
func BenchmarkTable1(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := eval.Table1(benchAppEval); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates the 557-binary comparison (success and
// failure counts plus average set sizes for the three tools).
func BenchmarkTable2(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := eval.EvalDebian(benchDebian)
		if err != nil {
			b.Fatal(err)
		}
		if out := eval.Table2(d); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure8 regenerates the identified-set-size histogram.
func BenchmarkFigure8(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := eval.Figure8(benchDebEval); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable3 measures B-Side's whole-analysis cost on the six
// applications (the execution-time/memory table).
func BenchmarkTable3(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps, err := eval.EvalApps(benchApps)
		if err != nil {
			b.Fatal(err)
		}
		if out := eval.Table3(apps); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4 regenerates the nginx phase automaton and its
// transition matrix.
func BenchmarkTable4(b *testing.B) {
	benchSetup(b)
	var nginx *eval.AppEval
	for _, a := range benchAppEval {
		if a.Name == "nginx" {
			nginx = a
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := eval.EvalPhases(nginx)
		if err != nil {
			b.Fatal(err)
		}
		if out := eval.Table4(ps); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable5 regenerates the CVE-protection percentages over the
// Debian corpus results.
func BenchmarkTable5(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := eval.Table5Rows(benchDebEval)
		if len(rows) != 36 {
			b.Fatalf("rows: %d", len(rows))
		}
	}
}

// BenchmarkPhaseAblationAutomaton vs ...Naive quantify §4.7's claim
// that the automaton-based phase detection vastly outruns naive CFG
// navigation (paper: 41s vs 700s on a hello world, 20min vs 4h on
// Nginx).
func BenchmarkPhaseAblationAutomaton(b *testing.B) {
	benchSetup(b)
	in := ablationInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phases.Detect(in, phases.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhaseAblationNaive is the strawman side of the ablation.
func BenchmarkPhaseAblationNaive(b *testing.B) {
	benchSetup(b)
	in := ablationInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := phases.DetectNaive(in); len(out) == 0 {
			b.Fatal("no phases")
		}
	}
}

func ablationInput(b *testing.B) phases.Input {
	b.Helper()
	var nginx *eval.AppEval
	for _, a := range benchAppEval {
		if a.Name == "nginx" {
			nginx = a
		}
	}
	return phases.Input{Graph: nginx.Report.Graph, Emits: nginx.Report.Emits()}
}

// --- batch analysis: worker pool + persistent cache ---------------------

// writeBatchCorpus materializes the six corpus applications (which all
// share libc.so.6) and their libraries on disk for AnalyzeAll runs.
func writeBatchCorpus(b *testing.B) (paths []string, libDir string) {
	b.Helper()
	benchSetup(b)
	dir := b.TempDir()
	libDir = filepath.Join(dir, "libs")
	if err := os.MkdirAll(libDir, 0o755); err != nil {
		b.Fatal(err)
	}
	for name, lib := range benchApps.Libs {
		if err := lib.WriteFile(filepath.Join(libDir, name)); err != nil {
			b.Fatal(err)
		}
	}
	for _, app := range benchApps.Apps {
		path := filepath.Join(dir, app.Profile.Name)
		if err := app.Bin.WriteFile(path); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths, libDir
}

func runAnalyzeAll(b *testing.B, a *Analyzer, paths []string, opts BatchOptions, wantCached bool) {
	b.Helper()
	results, err := a.AnalyzeAll(paths, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			b.Fatalf("%s: %v", res.Path, res.Err)
		}
		if res.Cached != wantCached {
			b.Fatalf("%s: cached=%v, want %v", res.Path, res.Cached, wantCached)
		}
	}
}

// BenchmarkAnalyzeAllColdCache is a from-scratch batch: every library
// interface and every program is analyzed and persisted.
func BenchmarkAnalyzeAllColdCache(b *testing.B) {
	paths, libDir := writeBatchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cacheDir := filepath.Join(b.TempDir(), fmt.Sprintf("cold%d", i))
		b.StartTimer()
		a := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
		runAnalyzeAll(b, a, paths, BatchOptions{}, false)
	}
}

// BenchmarkAnalyzeAllWarmCache is the same batch against a populated
// store: the per-library phase and per-program identification vanish,
// leaving ELF parsing plus cache reads. The cold/warm gap is the
// paper's §4.5 decoupling made persistent.
func BenchmarkAnalyzeAllWarmCache(b *testing.B) {
	paths, libDir := writeBatchCorpus(b)
	cacheDir := filepath.Join(b.TempDir(), "warm")
	prewarm := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
	runAnalyzeAll(b, prewarm, paths, BatchOptions{}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAnalyzer(Options{LibraryDir: libDir, CacheDir: cacheDir})
		runAnalyzeAll(b, a, paths, BatchOptions{}, true)
	}
}

// writeStaticBatch materializes n mid-sized static binaries, where all
// analysis work is per-binary (no shared-library phase to serialize on)
// — the workload shape that isolates the worker pool itself.
func writeStaticBatch(b *testing.B, n int) []string {
	b.Helper()
	dir := b.TempDir()
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		bin, err := corpus.BuildProgram(corpus.Profile{
			Name: fmt.Sprintf("batch%02d", i), Kind: elff.KindStatic,
			HotDirect: 12, HotWrapper: 4, HotStack: 2, Handlers: 2,
			ColdDirect: 8, ColdWrapper: 2, StackedTruth: 1,
			Filler: 30, Seed: int64(100 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("batch%02d", i))
		if err := bin.WriteFile(path); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// BenchmarkAnalyzeAllSerial / ...Parallel quantify the worker pool with
// caching off: identical work, one worker vs GOMAXPROCS workers.
func BenchmarkAnalyzeAllSerial(b *testing.B) {
	paths := writeStaticBatch(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAnalyzer(Options{})
		runAnalyzeAll(b, a, paths, BatchOptions{Jobs: 1}, false)
	}
}

func BenchmarkAnalyzeAllParallel(b *testing.B) {
	paths := writeStaticBatch(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAnalyzer(Options{})
		runAnalyzeAll(b, a, paths, BatchOptions{}, false)
	}
}

// --- intra-binary parallelism -------------------------------------------

// writeLargeBinary materializes the large-binary workload (the paper's
// hardest targets — libc-sized libraries, large servers): one binary
// whose identification phase is dominated by deep backward searches
// over many independent sites. Identification dwarfs decode here, so
// the intra-binary worker pool has real work to spread.
func writeLargeBinary(b *testing.B) string {
	b.Helper()
	bin, err := corpus.BuildProgram(corpus.LargeBinaryProfile())
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "large")
	if err := bin.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkAnalyzeLargeBinary quantifies intra-binary parallelism on a
// single large binary: the same analysis at 1 vs 4 workers. Every
// iteration analyses the binary from scratch (no cache, and nothing is
// memoized between analyses), so each one pays decode, wrappers and
// identify in full. Results are asserted identical across worker
// counts inside the loop — the speedup must come for free, not from
// skipped work. (On a single-CPU host the two sub-benchmarks
// necessarily tie; the parallel win needs cores, which the CI runners
// have.)
func BenchmarkAnalyzeLargeBinary(b *testing.B) {
	path := writeLargeBinary(b)
	var baseline []uint64
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := NewAnalyzer(Options{IntraWorkers: workers})
				res, err := a.AnalyzeFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if res.FailOpen {
					b.Fatal("large binary must stay bounded")
				}
				if baseline == nil {
					baseline = res.Syscalls
				} else if !reflect.DeepEqual(res.Syscalls, baseline) {
					b.Fatalf("workers=%d drifted from the serial result", workers)
				}
			}
		})
	}
}

// BenchmarkRecoverLargeBinary isolates the frontend on the
// large-binary workload: disassembly into the decode arena plus the
// incremental active-address-taken fixpoint and the slab-built graph.
// Identification dominates the whole analysis, so a frontend
// regression would hide in BenchmarkAnalyzeLargeBinary's numbers; this
// benchmark's allocs/op are gated by `make bench-check` on their own.
func BenchmarkRecoverLargeBinary(b *testing.B) {
	bin, err := corpus.BuildProgram(corpus.LargeBinaryProfile())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumBlocks() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkRecoverHuge profiles the frontend at a cold sweep's shape:
// the first FailCFGHuge image of the seed-42 Debian-shaped tree, about
// 90k decoded instructions, where memory traffic dominates. The
// large-binary image decodes about 10k and stays in cache. Not gated:
// `make profile` reads it.
func BenchmarkRecoverHuge(b *testing.B) {
	var p corpus.Profile
	for _, q := range corpus.DebianProfiles(42) {
		if q.Class == corpus.FailCFGHuge {
			p = q
			break
		}
	}
	bin, err := corpus.BuildProgram(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumBlocks() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkAnalyzeBudgetExhausting profiles the fork-heavy shape:
// cold analyses, with no cache, of the 30 seed-42 Debian-shaped
// binaries whose searches exhaust the symbolic-execution budget
// (profile classes FailIdent and FailWrapper). Each iteration analyzes
// all 30 with a fresh Analyzer. Not gated: `make profile` reads it.
func BenchmarkAnalyzeBudgetExhausting(b *testing.B) {
	dir := b.TempDir()
	libDir := filepath.Join(dir, "libs")
	if err := os.MkdirAll(libDir, 0o755); err != nil {
		b.Fatal(err)
	}
	set, err := corpus.NewLibrarySet()
	if err != nil {
		b.Fatal(err)
	}
	for name, lib := range set.Libs {
		if err := lib.WriteFile(filepath.Join(libDir, name)); err != nil {
			b.Fatal(err)
		}
	}
	var paths []string
	for _, p := range corpus.DebianProfiles(42) {
		if p.Class != corpus.FailIdent && p.Class != corpus.FailWrapper {
			continue
		}
		bin, err := corpus.BuildProgram(p)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, p.Name)
		if err := bin.WriteFile(path); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
	}
	if len(paths) != 30 {
		b.Fatalf("%d budget-exhausting profiles, want 30", len(paths))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAnalyzer(Options{LibraryDir: libDir})
		for _, path := range paths {
			if _, err := a.AnalyzeFile(path); !errors.Is(err, ident.ErrTimeout) {
				b.Fatalf("%s: %v, want the budget exhausted", path, err)
			}
		}
	}
}

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkDecode measures instruction decoding in the shape CFG
// recovery runs it: the instructions of the first FailCFGHuge image of
// the seed-42 Debian-shaped tree (the ones its graph holds, in address
// order), each decoded in place into the next slot of a reused slice.
// Not gated: `make profile` reads it.
func BenchmarkDecode(b *testing.B) {
	var p corpus.Profile
	for _, q := range corpus.DebianProfiles(42) {
		if q.Class == corpus.FailCFGHuge {
			p = q
			break
		}
	}
	bin, err := corpus.BuildProgram(p)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var addrs []uint64
	blocks := g.Blocks()
	for i := range blocks {
		for _, in := range g.Insns(&blocks[i]) {
			addrs = append(addrs, in.Addr)
		}
	}
	insns := make([]x86.Inst, 0, len(addrs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insns = insns[:0]
		for _, addr := range addrs {
			buf, _ := bin.BytesAt(addr)
			insns = insns[:len(insns)+1]
			if err := x86.Decode(&insns[len(insns)-1], buf, addr); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/insn")
}

// benchBinary builds a mid-sized static binary for substrate benches.
func benchBinary(b *testing.B) *elff.Binary {
	b.Helper()
	bin, err := corpus.BuildProgram(corpus.Profile{
		Name: "bench", Kind: elff.KindStatic,
		HotDirect: 12, HotWrapper: 4, HotStack: 2, Handlers: 2,
		ColdDirect: 8, ColdWrapper: 2, StackedTruth: 1,
		Filler: 30, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return bin
}

// BenchmarkCFGRecover measures disassembly + precise-CFG recovery.
func BenchmarkCFGRecover(b *testing.B) {
	bin := benchBinary(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Recover(bin, cfg.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdentify measures the full identification pass (wrapper
// detection + backward search) on one binary.
func BenchmarkIdentify(b *testing.B) {
	bin := benchBinary(b)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ident.Analyze(g, ident.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulate measures the ground-truth emulator.
func BenchmarkEmulate(b *testing.B) {
	bin := benchBinary(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := emu.NewProcess(bin, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemble measures corpus synthesis itself.
func BenchmarkAssemble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bld := asm.New()
		bld.Func("_start")
		for j := 0; j < 100; j++ {
			bld.MovRegImm32(x86.RAX, uint32(j))
			bld.Syscall()
		}
		bld.Ret()
		if _, _, err := bld.Finalize(0x400000); err != nil {
			b.Fatal(err)
		}
	}
}
