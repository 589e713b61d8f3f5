package bside

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bside/internal/corpus"
	"bside/internal/elff"
)

// invarianceFixture writes a wrapper-heavy static binary — the shape
// whose identification units actually fan out across the intra-binary
// pool — plus the dynamic fixture binaries with a shared library (the
// stitch path).
func invarianceFixture(t *testing.T) []analyzerCase {
	t.Helper()
	dir := t.TempDir()
	bin, err := corpus.BuildProgram(corpus.Profile{
		Name: "invariance", Kind: elff.KindStatic,
		HotDirect: 14, HotWrapper: 5, HotStack: 2, Handlers: 3,
		ColdDirect: 9, ColdWrapper: 3, StackedTruth: 2,
		Filler: 35, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	staticPath := filepath.Join(dir, "invariance")
	mustWrite(t, bin, staticPath)

	dynPaths, libDir := batchFixture(t, 1)
	return []analyzerCase{
		{name: "static", path: staticPath},
		{name: "dynamic", path: dynPaths[0], libDir: libDir},
	}
}

type analyzerCase struct {
	name   string
	path   string
	libDir string
}

// phaseFingerprint reduces a PhaseReport to its comparable content.
type phaseFingerprint struct {
	Start  int
	Phases []Phase
}

// TestIntraWorkerInvariance is the worker-count invariance contract of
// the staged pipeline: the same binary analyzed at 1, 4 and 8
// intra-binary workers must yield identical syscall sets, identical
// phase partitions, and identical ordering everywhere.
func TestIntraWorkerInvariance(t *testing.T) {
	for _, tc := range invarianceFixture(t) {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				record  *Record
				phases  phaseFingerprint
				listing string
			}
			var base *outcome
			for _, workers := range []int{1, 4, 8} {
				a := NewAnalyzer(Options{LibraryDir: tc.libDir, IntraWorkers: workers})
				res, err := a.AnalyzeFile(tc.path)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Timings == nil || res.Timings.Identify < 0 {
					t.Fatalf("workers=%d: missing stage timings", workers)
				}
				got := &outcome{record: res.Record(), listing: res.Disassembly()}
				pr, err := res.Phases(PhaseOptions{})
				if err != nil {
					t.Fatalf("workers=%d: phases: %v", workers, err)
				}
				got.phases = phaseFingerprint{Start: pr.Start, Phases: pr.Phases}
				if base == nil {
					base = got
					continue
				}
				if !reflect.DeepEqual(got.record, base.record) {
					t.Fatalf("workers=%d: record drifted:\n%+v\n%+v", workers, got.record, base.record)
				}
				if !reflect.DeepEqual(got.phases, base.phases) {
					t.Fatalf("workers=%d: phase partitions drifted", workers)
				}
				if got.listing != base.listing {
					t.Fatalf("workers=%d: disassembly ordering drifted", workers)
				}
			}
		})
	}
}

// TestAnalyzeTimeout: Options.Timeout in the past must fail the
// analysis with a budget-exhausted error instead of running unbounded.
func TestAnalyzeTimeout(t *testing.T) {
	cases := invarianceFixture(t)
	a := NewAnalyzer(Options{Timeout: time.Nanosecond})
	if _, err := a.AnalyzeFile(cases[0].path); err == nil {
		t.Fatal("expired deadline must fail the analysis")
	}
}
