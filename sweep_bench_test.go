package bside_test

// Fleet-throughput benchmarks for the sweep harness (external test
// package: the root package cannot import internal/sweep, which
// imports it back). BenchmarkSweepTree is the distro-scan number the
// tentpole optimizations — mmap zero-copy image frontend, striped
// cache tiers — exist to move: binaries per second over a nested tree,
// cold and warm.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bside"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/ident"
	"bside/internal/sweep"
)

// sweepCorpusSize is the benchmark tree's binary count: big enough
// that per-binary variance averages out, small enough to keep CI
// bench smoke runs quick.
const sweepCorpusSize = 64

// sweepUndecidedSize is how many budget-exhausted binaries the
// WarmUndecided tree adds to the fleet: FailIdent and FailWrapper
// profiles, alternating.
const sweepUndecidedSize = 4

var sweepTrees struct {
	once             sync.Once
	plain, undecided string
	err              error
}

// sweepBenchTree materializes the shared benchmark trees once per
// process: sweepCorpusSize static binaries across nested package
// directories, interleaved with the non-ELF noise a real tree carries,
// and a copy of that tree plus sweepUndecidedSize budget-exhausted
// binaries.
func sweepBenchTree(b *testing.B, undecided bool) string {
	sweepTrees.once.Do(func() {
		var profiles []corpus.Profile
		for i := 0; i < sweepCorpusSize; i++ {
			profiles = append(profiles, corpus.Profile{
				Name: fmt.Sprintf("fleet%02d", i), Kind: elff.KindStatic,
				HotDirect: 10, HotWrapper: 3, HotStack: 2, Handlers: 1,
				ColdDirect: 6, ColdWrapper: 2, StackedTruth: 1,
				Filler: 24, Seed: int64(4000 + i),
			})
		}
		if sweepTrees.plain, sweepTrees.err = writeSweepTree(profiles); sweepTrees.err != nil {
			return
		}
		for i := 0; i < sweepUndecidedSize; i++ {
			class := corpus.FailIdent
			if i%2 == 1 {
				class = corpus.FailWrapper
			}
			profiles = append(profiles, corpus.Profile{
				Name: fmt.Sprintf("undecided%d", i), Kind: elff.KindStatic,
				HotDirect: 6, HotWrapper: 3, ColdDirect: 4, ColdWrapper: 1,
				Class: class, Filler: 24, Seed: int64(5000 + i),
			})
		}
		sweepTrees.undecided, sweepTrees.err = writeSweepTree(profiles)
	})
	if sweepTrees.err != nil {
		b.Fatal(sweepTrees.err)
	}
	if undecided {
		return sweepTrees.undecided
	}
	return sweepTrees.plain
}

// writeSweepTree builds profiles into a fresh temp tree spread over
// eight package directories, with a text file in every eighth binary's
// package.
func writeSweepTree(profiles []corpus.Profile) (string, error) {
	root, err := os.MkdirTemp("", "sweepbench")
	if err != nil {
		return "", err
	}
	for i, p := range profiles {
		bin, err := corpus.BuildProgram(p)
		if err != nil {
			return "", err
		}
		dir := filepath.Join(root, fmt.Sprintf("pkg%02d", i%8), "bin")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		if err := bin.WriteFile(filepath.Join(dir, p.Name)); err != nil {
			return "", err
		}
		if i%8 == 0 {
			noise := filepath.Join(root, fmt.Sprintf("pkg%02d", i%8), "doc.txt")
			if err := os.WriteFile(noise, []byte("package docs\n"), 0o644); err != nil {
				return "", err
			}
		}
	}
	return root, nil
}

// runSweepBench sweeps one shared tree and asserts the fleet came
// through whole: every decided binary analyzed (from the cache when
// wantWarm), and with undecided set every budget-exhausted binary
// answered with its budget verdict — on a warm pass, from the store.
func runSweepBench(b *testing.B, cacheDir string, wantWarm, undecided bool) {
	b.Helper()
	a := bside.NewAnalyzer(bside.Options{CacheDir: cacheDir})
	var verdicts []string
	sum, err := sweep.Run(context.Background(), sweepBenchTree(b, undecided), sweep.Options{
		Analyzer: a,
		OnResult: func(r *sweep.Result) {
			if r.Error != "" {
				verdicts = append(verdicts, r.Error)
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	wantFailed := 0
	if undecided {
		wantFailed = sweepUndecidedSize
	}
	if sum.Analyzed != sweepCorpusSize || sum.Failed != int64(wantFailed) {
		b.Fatalf("analyzed=%d failed=%d (phases=%v), want %d/%d",
			sum.Analyzed, sum.Failed, sum.FailurePhases, sweepCorpusSize, wantFailed)
	}
	// FailIdent and FailWrapper alternate: half the verdicts per stage.
	stages := map[string]int{}
	for _, v := range verdicts {
		stages[v]++
	}
	for _, stage := range []string{ident.StageIdentify, ident.StageWrappers} {
		if n := stages[stage+": "+ident.ErrTimeout.Error()]; n != wantFailed/2 {
			b.Fatalf("%d %s verdicts, want %d (all verdicts: %q)", n, stage, wantFailed/2, verdicts)
		}
	}
	if wantWarm && sum.Warm != sum.Analyzed {
		b.Fatalf("warm=%d of %d", sum.Warm, sum.Analyzed)
	}
	if wantWarm && undecided {
		if hits := a.CacheStats().Hits; hits < uint64(sweepCorpusSize+sweepUndecidedSize) {
			b.Fatalf("warm pass: %d store hits for %d binaries", hits, sweepCorpusSize+sweepUndecidedSize)
		}
	}
	if !wantWarm && sum.Warm != 0 {
		b.Fatalf("cold sweep served %d binaries warm", sum.Warm)
	}
}

// BenchmarkSweepTree/Cold is the first scan of a fleet: every binary
// walked, sniffed, mapped, analyzed and persisted.
// BenchmarkSweepTree/Warm is every scan after it: the same tree served
// from the content-addressed cache, which is the steady state of a
// nightly distro rescan. BenchmarkSweepTree/WarmUndecided is Warm over
// the tree with budget-exhausted binaries added, whose stored verdicts
// must answer as cheaply as the decided summaries. All report binaries
// per second.
func BenchmarkSweepTree(b *testing.B) {
	sweepBenchTree(b, false)
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cacheDir := filepath.Join(b.TempDir(), fmt.Sprintf("cold%d", i))
			b.StartTimer()
			runSweepBench(b, cacheDir, false, false)
		}
		b.ReportMetric(float64(sweepCorpusSize*b.N)/b.Elapsed().Seconds(), "bin/s")
	})
	b.Run("Warm", func(b *testing.B) {
		cacheDir := filepath.Join(b.TempDir(), "warm")
		runSweepBench(b, cacheDir, false, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSweepBench(b, cacheDir, true, false)
		}
		b.ReportMetric(float64(sweepCorpusSize*b.N)/b.Elapsed().Seconds(), "bin/s")
	})
	b.Run("WarmUndecided", func(b *testing.B) {
		cacheDir := filepath.Join(b.TempDir(), "warm")
		runSweepBench(b, cacheDir, false, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSweepBench(b, cacheDir, true, true)
		}
		b.ReportMetric(float64((sweepCorpusSize+sweepUndecidedSize)*b.N)/b.Elapsed().Seconds(), "bin/s")
	})
}
