// Package bside is a static binary-analysis library that identifies the
// set of Linux system calls an x86-64 ELF executable may invoke at
// runtime, without access to sources — a reproduction of "B-Side:
// Binary-Level Static System Call Identification" (MIDDLEWARE 2024).
//
// The analysis runs as an explicit staged pipeline per binary — decode
// and precise-CFG recovery with the active-addresses-taken heuristic,
// syscall-wrapper detection with a two-phase heuristic, per-site
// identification via a backward search driven by directed forward
// symbolic execution, and (for dynamic executables) stitching of
// foreign calls against per-library shared interfaces computed once per
// library. Each stage's wall-clock cost is recorded on the result's
// Timings.
//
// Typical use — analyze one executable:
//
//	a := bside.NewAnalyzer(bside.Options{LibraryDir: "deps/"})
//	res, err := a.AnalyzeFile("bin/server")
//	...
//	policy := res.Policy() // seccomp-style allow list
//
// Typical use — analyze a fleet, with results persisted across runs:
//
//	a := bside.NewAnalyzer(bside.Options{
//		LibraryDir: "deps/",
//		CacheDir:   "/var/cache/bside",
//	})
//	results, err := a.AnalyzeAll(paths, bside.BatchOptions{})
//	for _, res := range results {
//		if res.Err != nil { ... }        // per-binary failure
//		_ = res.Cached                   // served from the warm cache
//	}
//
// AnalyzeAll fans the binaries out across a bounded worker pool; the
// expensive per-library phase (§4.5) runs exactly once per distinct
// library even when many workers need it concurrently. With CacheDir
// set, shared interfaces and whole-program results are stored on disk,
// content-addressed by the SHA-256 of the ELF image, so a binary — or a
// library shared by a thousand binaries — is only ever analyzed once
// per content version, across process lifetimes.
//
// Large single binaries parallelize *within* the analysis too: with
// Options.IntraWorkers set, the wrapper-detection and identification
// stages fan their independent units (functions, syscall sites) across
// a bounded worker pool sharing one atomic symbolic-execution budget.
// Results are byte-identical at any worker count — only the wall clock
// changes.
package bside

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bside/internal/cache"
	"bside/internal/elff"
	"bside/internal/faults"
	"bside/internal/filter"
	"bside/internal/guard"
	"bside/internal/ident"
	"bside/internal/linux"
	"bside/internal/phases"
	"bside/internal/pipeline"
	"bside/internal/shared"
)

// PanicError is a panic raised while analyzing one binary, converted
// into a structured error at the analysis fault boundary
// (internal/guard). It carries the pipeline stage, the image's content
// hash, and the panicking goroutine's stack; it surfaces like any
// other per-binary failure — AnalyzeFile's error, a batch entry's
// Analysis.Err — and is never cached, so one hostile binary costs its
// own result and nothing else. ErrMalformed is the other half of the
// taxonomy: input the parser rejected, rather than analysis code that
// blew up.
type PanicError = guard.PanicError

// IsPanic unwraps an analysis error to its PanicError, if the failure
// was a contained panic. Service tiers use it to split "we crashed on
// this input" (HTTP 500, panics_total) from ordinary analysis failures.
func IsPanic(err error) (*PanicError, bool) { return guard.AsPanic(err) }

// ErrMalformed classifies failures caused by the input image itself —
// truncated or contradictory ELF headers, out-of-range offsets,
// header-driven sizes exceeding the file. errors.Is(err, ErrMalformed)
// holds for every parse rejection from any entry path.
var ErrMalformed = elff.ErrMalformed

// ErrLayout classifies a well-formed image the analyzer cannot model
// yet — more than one loadable segment, or code not at the segment
// base, as real linkers emit — refused rather than answered with a set
// missing every syscall outside the modelled region.
var ErrLayout = elff.ErrLayout

// Options configures an Analyzer.
type Options struct {
	// LibraryDir is where DT_NEEDED dependencies are looked up (by
	// exact name). Required for dynamically linked targets with
	// dependencies.
	LibraryDir string
	// MaxCFGInstructions bounds disassembly work per binary; 0 uses a
	// generous default. Exceeding the bound fails the analysis, like
	// the paper's wall-clock timeout.
	MaxCFGInstructions int
	// IntraWorkers is the intra-binary worker-pool size: how many
	// independent analysis units (wrapper-detection functions,
	// identification targets) of ONE binary run concurrently. 0 or 1
	// is serial; negative values mean one worker per CPU. Results are
	// identical at any setting — only wall-clock time changes. This
	// composes with AnalyzeAll's across-binary pool; for large fleets
	// of small binaries prefer BatchOptions.Jobs, for a few huge
	// binaries (a libc, a browser) prefer IntraWorkers.
	IntraWorkers int
	// Timeout, when positive, bounds each analysis unit's wall clock —
	// the paper's per-binary analysis timeout. An analysis that runs
	// past it fails with a budget-exhausted error rather than running
	// unbounded. Such a wall-clock verdict is never cached: the next
	// run analyzes again. Timeout is not part of the cache fingerprint.
	Timeout time.Duration
	// Modules lists shared objects the target loads at runtime via
	// dlopen-style mechanisms. Identifying them is the user's
	// responsibility (as in the paper, §4.5); every exported function
	// of a module is assumed callable and unioned into the result.
	Modules []string
	// CacheDir, when set, enables the persistent content-addressed
	// analysis cache: shared-library interfaces and whole-program
	// results are stored under this directory keyed by the SHA-256 of
	// the ELF image (plus a configuration and dependency fingerprint)
	// and reused on later runs. Analyses served from the cache have
	// Cached set and do not support Phases or Disassembly (those need
	// the recovered CFG, which is not persisted). A program whose
	// analysis exhausted the symbolic-execution step or fork budget is
	// cached too: later runs return the same budget-exhausted error
	// without re-running the search. Verdicts reached through Timeout,
	// a context deadline or a cancellation, and every other failure, are
	// never cached. Program-level caching is skipped when Modules are
	// configured; interface caching still applies. Corrupt or stale
	// entries are ignored and re-computed, never fatal.
	CacheDir string
	// PackPath, when set, additionally attaches one compacted cache
	// pack file (see `bside cache pack`) to the analyzer's store: an
	// immutable, memory-mapped, binary-searchable snapshot of cache
	// entries consulted between the memory tier and the loose files.
	// Packs living under CacheDir/packs/ are discovered automatically;
	// this knob points at a pack built elsewhere — a fleet can compact
	// once, distribute the file, and mount it read-only everywhere. An
	// unreadable or corrupt pack surfaces like an unusable CacheDir:
	// NewAnalyzerErr fails, NewAnalyzer defers the error to the first
	// analysis.
	PackPath string
	// DisableFuncMemo has no effect.
	//
	// Deprecated: identification no longer memoizes per-function
	// results (fewer than 1 in 100 lookups hit on any benchmark
	// workload), so there is nothing to disable. Re-analysis of a
	// byte-identical binary is served by CacheDir. The field stays
	// because the benchmark harness under bench/ still sets it.
	DisableFuncMemo bool
	// ResolverLayers selects the depth of the layered indirect-call
	// resolver, which refines how far each indirect call/jump site can
	// fan out before identification runs: -1 disables it (every site
	// reaches the whole active address-taken set — the most conservative
	// reading of the paper's heuristic), 1 enables code-pointer
	// provenance through read-only data sections and RELATIVE
	// relocations, and 2 — the default for the zero value — adds
	// call-signature pruning of provenance survivors. Every setting is
	// sound (a site the resolver cannot refine keeps the full fan-out);
	// deeper layers only shrink the identified superset. The setting is
	// part of the cache fingerprint, so results computed under different
	// layers never serve each other.
	ResolverLayers int
	// DisableMmap forces the file frontend to read images into the
	// heap instead of memory-mapping them. The mapped path is the
	// default wherever the platform supports it: the decode arena and
	// the hasher consume the kernel's page-cache view directly, so a
	// fleet sweep never copies binaries it only reads. Results are
	// byte-identical either way (the fuzzer's sweep-nommap invariance
	// leg enforces that); the switch exists for odd filesystems where
	// mapping misbehaves and for benchmarking the copying frontend.
	DisableMmap bool
}

// Analyzer analyzes executables, caching shared-library interfaces
// across calls (the once-per-library phase of the paper's §4.5). It is
// safe for concurrent use: AnalyzeAll runs one Analyzer across a
// worker pool, and concurrent calls needing the same library compute
// its interface exactly once.
type Analyzer struct {
	inner    *shared.Analyzer
	modules  []string
	cache    *cache.Store
	cacheErr error
	noMmap   bool

	// Image-frontend traffic: every ELF file this analyzer opened
	// (programs, libraries, modules — one image-read implementation),
	// how many of those were served zero-copy via mmap, and the total
	// image bytes opened.
	imageOpens  atomic.Uint64
	imageMapped atomic.Uint64
	imageBytes  atomic.Uint64
}

// openImage opens one ELF file through the zero-copy frontend,
// honoring DisableMmap and counting the traffic for CacheStats.
func (a *Analyzer) openImage(path string) (*elff.Image, error) {
	var im *elff.Image
	var err error
	if a.noMmap {
		im, err = elff.OpenCopied(path)
	} else {
		im, err = elff.OpenMapped(path)
	}
	if err != nil {
		return nil, err
	}
	a.countImage(len(im.Data), im.Mapped())
	return im, nil
}

// openBinary opens and parses one ELF file through the image layer;
// the returned binary owns its image (ReleaseImage when done).
func (a *Analyzer) openBinary(path string) (*elff.Binary, error) {
	bin, err := elff.OpenBinary(path, a.noMmap)
	if err != nil {
		return nil, err
	}
	if im := bin.Image(); im != nil {
		a.countImage(len(im.Data), im.Mapped())
	}
	return bin, nil
}

func (a *Analyzer) countImage(size int, mapped bool) {
	a.imageOpens.Add(1)
	a.imageBytes.Add(uint64(size))
	if mapped {
		a.imageMapped.Add(1)
	}
}

// NewAnalyzerErr builds an Analyzer and surfaces configuration errors
// eagerly: an unusable CacheDir fails here, at construction, instead of
// on the first analysis call. Long-lived callers (a resident service,
// anything wiring the analyzer into a health check) should prefer this
// over NewAnalyzer, whose deferred error reporting exists for the
// one-shot CLI ergonomics of the original API.
func NewAnalyzerErr(opts Options) (*Analyzer, error) {
	a := NewAnalyzer(opts)
	if a.cacheErr != nil {
		return nil, a.cacheErr
	}
	return a, nil
}

// NewAnalyzer builds an Analyzer.
func NewAnalyzer(opts Options) *Analyzer {
	a := &Analyzer{modules: opts.Modules, noMmap: opts.DisableMmap}
	dir := opts.LibraryDir
	load := func(name string) (*elff.Binary, error) {
		if dir == "" {
			return nil, fmt.Errorf("bside: dependency %q needed but no LibraryDir configured", name)
		}
		// Libraries ride the same zero-copy image path as programs;
		// the resolver releases the mapping once the interface is
		// computed (shared.Analyzer.trimBin).
		return a.openBinary(filepath.Join(dir, name))
	}
	inner := shared.NewAnalyzer(load, ident.Config{ResolverLayers: opts.ResolverLayers})
	inner.MaxCFGInsns = opts.MaxCFGInstructions
	inner.Workers = opts.IntraWorkers
	inner.Timeout = opts.Timeout
	a.inner = inner
	if opts.CacheDir != "" {
		a.cache, a.cacheErr = cache.Open(opts.CacheDir)
		if a.cache != nil && opts.PackPath != "" {
			if err := a.cache.AttachPack(opts.PackPath); err != nil && a.cacheErr == nil {
				a.cacheErr = err
			}
		}
		inner.Cache = a.cache
	} else if opts.PackPath != "" {
		a.cacheErr = fmt.Errorf("bside: PackPath requires CacheDir")
	}
	return a
}

// CacheStats is a snapshot of the persistent cache's traffic (zero
// when no CacheDir is configured) and of the image frontend.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Stores uint64 `json:"stores"`
	// MemoryHits is the subset of Hits served from the in-process
	// memory tier, without a file read or an envelope decode.
	MemoryHits uint64 `json:"memory_hits"`
	// PackHits is the subset of Hits served from a memory-mapped cache
	// pack — a binary-search probe into the shared mapping plus one JSON
	// payload decode, with no per-entry open() and no envelope decode.
	PackHits uint64 `json:"pack_hits"`
	// Packs, PackEntries and PackBytesMapped gauge the open pack set:
	// file count, total indexed entries, and the bytes currently
	// memory-mapped (zero where the platform fell back to heap reads).
	Packs           int   `json:"packs"`
	PackEntries     int   `json:"pack_entries"`
	PackBytesMapped int64 `json:"pack_bytes_mapped"`
	// StoredBytes counts envelope bytes written to the disk tier.
	StoredBytes uint64 `json:"stored_bytes"`
	// CacheIOErrors counts durable-tier operations that failed for
	// reasons other than "entry absent" — unreadable loose files,
	// failed writes. Analysis proceeds regardless (reads degrade to
	// misses, writes are dropped), but a climbing count means the cache
	// directory is unhealthy; the serve tier's /healthz reports
	// degraded past a threshold.
	CacheIOErrors uint64 `json:"cache_io_errors"`
	// MemoryEvictions counts entries pushed out of the memory tier by
	// its LRU size bounds. It is process-wide: the tier is shared by
	// every Analyzer in the process. A resident service whose eviction
	// rate tracks its hit rate has a memory tier sized below its
	// working set.
	MemoryEvictions uint64 `json:"memory_evictions"`
	// MemoryEntries and MemoryBytes are point-in-time gauges of the
	// process-wide memory tier's population and payload footprint.
	MemoryEntries int   `json:"memory_entries"`
	MemoryBytes   int64 `json:"memory_bytes"`
	// FuncMemoHits and FuncMemoMisses are always zero.
	//
	// Deprecated: identification no longer memoizes per-function
	// results. The fields stay because the benchmark harness under
	// bench/ still reads them for its ident.funcmemo_hit_ratio layer,
	// which now reports 0 over 0 lookups.
	FuncMemoHits   uint64 `json:"func_memo_hits"`
	FuncMemoMisses uint64 `json:"func_memo_misses"`
	// ImageOpens counts ELF files opened through the zero-copy image
	// frontend — programs, libraries and modules alike, each counted
	// once (there is one image-read implementation).
	ImageOpens uint64 `json:"image_opens"`
	// ImageMapped is the subset of ImageOpens served as an mmap view
	// (zero-copy); the rest fell back to an in-heap read.
	ImageMapped uint64 `json:"image_mapped"`
	// ImageBytes is the total image bytes opened.
	ImageBytes uint64 `json:"image_bytes"`
}

// CacheStats reports the analyzer's cache traffic so far.
func (a *Analyzer) CacheStats() CacheStats {
	var out CacheStats
	if a.cache != nil {
		st := a.cache.Stats()
		out.Hits, out.Misses, out.Stores = st.Hits, st.Misses, st.Stores
		out.MemoryHits, out.StoredBytes = st.MemoryHits, st.StoredBytes
		out.PackHits = st.PackHits
		out.Packs, out.PackEntries = st.Packs, st.PackEntries
		out.PackBytesMapped = st.PackBytesMapped
		out.MemoryEvictions = st.MemoryEvictions
		out.MemoryEntries, out.MemoryBytes = st.MemoryEntries, st.MemoryBytes
		out.CacheIOErrors = st.IOErrors
	}
	out.ImageOpens = a.imageOpens.Load()
	out.ImageMapped = a.imageMapped.Load()
	out.ImageBytes = a.imageBytes.Load()
	return out
}

// Timings is the per-stage wall-clock cost record of one analysis —
// the pipeline's observability surface (the paper's Table 3, per run).
// Stages that did not run (Stitch for static binaries, Phases until
// requested) are zero.
type Timings struct {
	// Decode is disassembly plus precise-CFG recovery (§4.3).
	Decode time.Duration `json:"decode"`
	// Wrappers is syscall-wrapper detection (§4.4 phase G).
	Wrappers time.Duration `json:"wrappers"`
	// Identify is the per-site backward search (§4.4 phase H).
	Identify time.Duration `json:"identify"`
	// Stitch is foreign-call resolution against shared-library
	// interfaces (§4.5).
	Stitch time.Duration `json:"stitch,omitempty"`
	// Phases is execution-phase detection (§4.7), recorded when
	// Analysis.Phases runs.
	Phases time.Duration `json:"phases,omitempty"`
	// Total sums the recorded stages.
	Total time.Duration `json:"total"`
}

func timingsFrom(t pipeline.Timings) *Timings {
	return &Timings{
		Decode:   t.Get(pipeline.StageDecode),
		Wrappers: t.Get(pipeline.StageWrappers),
		Identify: t.Get(pipeline.StageIdentify),
		Stitch:   t.Get(pipeline.StageStitch),
		Total:    t.Total(),
	}
}

// Analysis is the result of analyzing one executable.
type Analysis struct {
	// Path is the file the analysis describes (set by AnalyzeFile and
	// AnalyzeAll; empty for AnalyzeBytes).
	Path string
	// Syscalls is the identified superset of invocable syscall numbers,
	// sorted ascending.
	Syscalls []uint64
	// FailOpen reports that at least one site could not be bounded; a
	// safe filter derived from this analysis must allow the full table.
	FailOpen bool
	// Wrappers counts detected syscall-wrapper functions in the main
	// binary.
	Wrappers int
	// Imports lists foreign symbols the program can reach.
	Imports []string
	// Cached reports that the result was served from the persistent
	// cache. Cached analyses do not support Phases or Disassembly.
	Cached bool
	// Timings is the per-stage cost of the main binary's analysis; nil
	// for cache-served results (nothing was computed).
	Timings *Timings
	// Err is the per-binary failure recorded by AnalyzeAll; when set,
	// every other field except Path is zero.
	Err error

	report *shared.ProgramReport
}

// fromSummary builds an analysis from its summary and, when one was
// computed, the report behind it (nil for a store hit).
func fromSummary(sum *shared.Summary, rep *shared.ProgramReport) *Analysis {
	out := &Analysis{
		Syscalls: sum.Syscalls,
		FailOpen: sum.FailOpen,
		Wrappers: sum.Wrappers,
		Imports:  sum.Imports,
		Cached:   sum.Cached,
		report:   rep,
	}
	if rep != nil {
		out.Timings = timingsFrom(rep.Timings)
	}
	return out
}

// Record is the canonical rendering of an analysis: the fields that are
// a pure function of the image and the analyzer's configuration,
// nothing request-scoped, nothing wall-clock. Every entry path renders
// this one record (the service body, the batch, sweep and single-binary
// JSON lines inside their own envelopes), so two analyses of the same
// image render byte-identically whether they ran cold, warm from any
// cache tier, directly in the library, or across the service. Every key
// is always present, and an empty collection renders as [].
type Record struct {
	Syscalls []uint64 `json:"syscalls"`
	Names    []string `json:"names"`
	FailOpen bool     `json:"fail_open"`
	Wrappers int      `json:"wrappers"`
	Imports  []string `json:"imports"`
}

// Record builds the analysis's canonical record.
func (r *Analysis) Record() *Record {
	rec := &Record{
		Syscalls: r.Syscalls,
		Names:    r.Names(),
		FailOpen: r.FailOpen,
		Wrappers: r.Wrappers,
		Imports:  r.Imports,
	}
	// Absent and empty collections must render identically: the cold
	// path builds empty slices, a cache round trip can surface nil.
	if rec.Syscalls == nil {
		rec.Syscalls = []uint64{}
	}
	if rec.Imports == nil {
		rec.Imports = []string{}
	}
	return rec
}

// AnalyzeFile analyzes the ELF executable at path.
func (a *Analyzer) AnalyzeFile(path string) (*Analysis, error) {
	return a.AnalyzeFileContext(context.Background(), path)
}

// AnalyzeFileContext is AnalyzeFile bounded by a context. Cancellation
// is honored at every pipeline stage boundary and — through the
// symbolic-execution budget's cancellation channel — mid-search inside
// the identification stages; the context's deadline tightens the
// per-binary wall clock when it is earlier than Options.Timeout. A
// context-aborted analysis fails with an error matching
// errors.Is(err, ctx.Err()). Shared-library interface computation
// triggered on the way is deliberately NOT canceled with the request:
// it is singleflighted, cached work that concurrent and future analyses
// reuse.
func (a *Analyzer) AnalyzeFileContext(ctx context.Context, path string) (*Analysis, error) {
	if a.cacheErr != nil {
		return nil, a.cacheErr
	}
	// Zero-copy frontend: the image is mmap'd where the platform
	// allows, and the parse aliases the loadable segment straight into
	// the mapping — a fleet sweep never copies the binaries it reads.
	// The mapping only lives for the duration of the analysis; before
	// unmapping, any retained alias (the report graph's segment view)
	// is detached, leaving the result self-contained.
	im, err := a.openImage(path)
	if err != nil {
		return nil, err
	}
	// Fault-injection seam: tests corrupt the image bytes here to drive
	// damaged-in-transit binaries through the real file path. Unarmed
	// (always, in production) it returns im.Data untouched.
	data := faults.TamperImage(path, im.Data)
	res, rerr := a.analyzeData(ctx, data, path, true)
	if res != nil && im.Mapped() {
		res.detachBlob()
	}
	if cerr := im.Close(); cerr != nil && rerr == nil {
		rerr = fmt.Errorf("elff: %s: %w", path, cerr)
	}
	if rerr != nil {
		return nil, rerr
	}
	res.Path = path
	return res, nil
}

// detachBlob drops the result's aliases into a soon-to-be-unmapped
// image. Post-analysis consumers of the retained report (Phases,
// Disassembly) read only graph structure and binary metadata, never
// the raw segment bytes, so clearing the blob is invisible to them.
func (r *Analysis) detachBlob() {
	if r.report != nil && r.report.Graph != nil && r.report.Graph.Bin != nil {
		r.report.Graph.Bin.Blob = nil
	}
}

// AnalyzeBytes analyzes an in-memory ELF image.
func (a *Analyzer) AnalyzeBytes(data []byte) (*Analysis, error) {
	return a.AnalyzeBytesContext(context.Background(), data)
}

// AnalyzeBytesContext is AnalyzeBytes bounded by a context (see
// AnalyzeFileContext for the cancellation semantics).
func (a *Analyzer) AnalyzeBytesContext(ctx context.Context, data []byte) (*Analysis, error) {
	if a.cacheErr != nil {
		return nil, a.cacheErr
	}
	// alias=false: the caller owns data and may reuse it; the parse
	// takes a private copy of the loadable segment.
	return a.analyzeData(ctx, data, "", false)
}

// Lookup probes the persistent cache for an analysis by image content
// hash alone — no image bytes, no ELF parse. This is the runtime half
// of the paper's decoupled design as a resident service sees it: the
// expensive phase ran somewhere, sometime, and a deployment-time
// caller holding only the binary's SHA-256 retrieves the stored result.
// The stored entry is validated exactly as strictly as a byte-level
// probe: the analyzer configuration must match and every dependency in
// the stored closure must still hash to the recorded value. Misses
// (no cache configured, absent entry, stale fingerprint) return false.
func (a *Analyzer) Lookup(hash string) (*Analysis, bool) {
	if a.cache == nil || a.cacheErr != nil || len(a.modules) != 0 {
		return nil, false
	}
	sum, ok := a.inner.CachedSummaryByHash(hash)
	if !ok {
		return nil, false
	}
	return fromSummary(sum, nil), true
}

// analyzeData is the shared front of the byte-level entry points. With
// a cache configured it first probes the store using only the image's
// cheap content identity (hash + DT_NEEDED); a warm fleet probe
// therefore skips the full ELF parse entirely, not just the analysis.
// Only on a miss — or when the identity parse cannot make sense of the
// image — is the binary fully parsed and analyzed. alias lets the
// parse view the loadable segment in place (data outlives the
// analysis — the file frontend's mapped image) instead of copying it.
//
// The whole call runs inside the outermost per-binary fault boundary:
// deeper boundaries (pipeline stages, worker units, the library
// singleflight) convert panics closest to their origin with the
// richest context, and this frontend capture is the backstop for
// everything between them — identity probing, parsing, stitching,
// module merging — so no panic raised while analyzing one binary can
// escape a public entry point.
func (a *Analyzer) analyzeData(ctx context.Context, data []byte, path string, alias bool) (*Analysis, error) {
	return guard.Capture1("frontend", "", func() (*Analysis, error) {
		return a.analyzeDataInner(ctx, data, path, alias)
	})
}

func (a *Analyzer) analyzeDataInner(ctx context.Context, data []byte, path string, alias bool) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bside: analysis aborted: %w", err)
	}
	probed := false
	hash := ""
	if a.cache != nil && len(a.modules) == 0 {
		if id, err := elff.ReadIdentity(data); err == nil {
			probed = true
			hash = id.Hash
			if sum, ok := a.inner.CachedSummary(id.Hash, id.Needed); ok {
				return fromSummary(sum, nil), nil
			}
		}
	}
	// The probe already hashed the image; the fallthrough parse reuses
	// that work (dependency fingerprints are memoized per analyzer, so
	// the miss path recomputes nothing expensive either).
	var bin *elff.Binary
	var err error
	if alias {
		bin, err = elff.ReadPrehashedAlias(data, hash)
	} else {
		bin, err = elff.ReadPrehashed(data, hash)
	}
	if err != nil {
		if path != "" {
			return nil, fmt.Errorf("elff: %s: %w", path, err)
		}
		return nil, err
	}
	bin.Path = path
	res, err := a.analyze(ctx, bin, probed)
	if err != nil {
		return nil, mapCtxErr(ctx, err)
	}
	return res, nil
}

// mapCtxErr folds a context abort into the analysis error: a canceled
// request surfaces as an error matching errors.Is(err, ctx.Err()) —
// what callers branch on — while keeping the analysis-level failure
// (typically the budget's timeout error) in the message. An analysis
// that failed on its own merits under a live context passes through
// untouched.
func mapCtxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("bside: analysis aborted: %w (%v)", cerr, err)
	}
	return err
}

// BatchOptions tunes AnalyzeAll.
type BatchOptions struct {
	// Jobs is the worker-pool size; 0 uses GOMAXPROCS.
	Jobs int
	// OnResult, when set, is invoked once per binary as soon as its
	// analysis completes — in completion order, not path order — so
	// long batches can stream progress instead of waiting for the
	// slowest binary. Calls are serialized (no locking needed inside)
	// and all happen before AnalyzeAll returns. The same *Analysis
	// values appear in the returned slice.
	OnResult func(res *Analysis)
}

// AnalyzeAll analyzes many executables concurrently over a bounded
// worker pool, sharing one interface cache: a library needed by several
// of the binaries is analyzed exactly once, however the work is
// scheduled. The result slice is parallel to paths. Per-binary
// failures do not abort the batch — they are recorded in the
// corresponding result's Err field, with the returned error reserved
// for systemic failures (an unusable cache directory).
func (a *Analyzer) AnalyzeAll(paths []string, opts BatchOptions) ([]*Analysis, error) {
	return a.AnalyzeAllContext(context.Background(), paths, opts)
}

// AnalyzeAllContext is AnalyzeAll bounded by a context. Cancellation is
// honored between binaries — no new analysis starts once ctx is done —
// and during them (each worker runs AnalyzeFileContext, so in-flight
// analyses abort mid-search). On cancellation the returned slice is
// still parallel to paths: binaries that never ran carry the context's
// error in their Err field, and the batch-level error is ctx.Err().
func (a *Analyzer) AnalyzeAllContext(ctx context.Context, paths []string, opts BatchOptions) ([]*Analysis, error) {
	if a.cacheErr != nil {
		return nil, a.cacheErr
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(paths) {
		jobs = len(paths)
	}
	results := make([]*Analysis, len(paths))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	var emitMu sync.Mutex
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				res, err := a.AnalyzeFileContext(ctx, paths[i])
				if err != nil {
					res = &Analysis{Path: paths[i], Err: err}
				}
				results[i] = res
				if opts.OnResult != nil {
					emitMu.Lock()
					opts.OnResult(res)
					emitMu.Unlock()
				}
			}
		}()
	}
dispatch:
	for i := range paths {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idxCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i, res := range results {
			if res == nil {
				results[i] = &Analysis{Path: paths[i], Err: fmt.Errorf("bside: batch aborted: %w", err)}
			}
		}
		return results, err
	}
	return results, nil
}

// analyze runs the cache-aware analysis of a parsed binary. probed
// says the caller already probed the store for this image (and
// missed), so the cache path goes straight to compute-and-persist.
func (a *Analyzer) analyze(ctx context.Context, bin *elff.Binary, probed bool) (*Analysis, error) {
	if a.cacheErr != nil {
		return nil, a.cacheErr
	}
	if a.cache != nil && len(a.modules) == 0 {
		// Cache-aware path: a hit skips all decoding; a miss computes,
		// persists the summary, and keeps the full report.
		if !probed {
			if sum, ok := a.inner.CachedSummary(bin.Hash, bin.Needed); ok {
				return fromSummary(sum, nil), nil
			}
		}
		sum, rep, err := a.inner.ComputeSummaryCtx(ctx, bin)
		if err != nil {
			return nil, err
		}
		return fromSummary(sum, rep), nil
	}
	rep, err := a.inner.ProgramCtx(ctx, bin)
	if err != nil {
		return nil, err
	}
	out := fromSummary(shared.Summarize(rep), rep)
	// dlopen-style modules the user declared: union their behaviour.
	for _, path := range a.modules {
		mod, err := a.openBinary(path)
		if err != nil {
			return nil, fmt.Errorf("bside: module %s: %w", path, err)
		}
		set, failOpen, err := a.inner.ModuleCtx(ctx, mod, filepath.Base(path), bin)
		// The module's interface is extracted; its segment bytes are
		// not needed again.
		_ = mod.ReleaseImage()
		if err != nil {
			return nil, fmt.Errorf("bside: module %s: %w", path, err)
		}
		out.FailOpen = out.FailOpen || failOpen
		var merged linux.SyscallBitset
		merged.AddAll(out.Syscalls)
		merged.AddAll(set)
		out.Syscalls = merged.Append(out.Syscalls[:0])
	}
	return out, nil
}

// Names returns the kernel names of the identified syscalls.
func (r *Analysis) Names() []string {
	out := make([]string, 0, len(r.Syscalls))
	for _, n := range r.Syscalls {
		out = append(out, nameOf(n))
	}
	return out
}

// nameOf renders a syscall number by its kernel name, or as syscall_N
// when the table names no such number.
func nameOf(n uint64) string {
	if name := linux.Name(n); name != "" {
		return name
	}
	return fmt.Sprintf("syscall_%d", n)
}

// Has reports whether syscall n is in the identified set.
func (r *Analysis) Has(n uint64) bool {
	i := sort.Search(len(r.Syscalls), func(i int) bool { return r.Syscalls[i] >= n })
	return i < len(r.Syscalls) && r.Syscalls[i] == n
}

// Policy is a seccomp-style allow list derived from an analysis.
type Policy struct {
	// Allowed syscall numbers; everything else would be denied.
	Allowed []uint64 `json:"allowed"`
	// AllowedNames mirrors Allowed with kernel names, named as
	// Analysis.Names names them.
	AllowedNames []string `json:"allowed_names"`
	// FailOpen means the analysis could not bound the set and the
	// policy allows the entire table (unsafe to tighten).
	FailOpen bool `json:"fail_open,omitempty"`
}

// Policy derives the filter policy for the whole program lifetime.
func (r *Analysis) Policy() *Policy {
	p := &Policy{FailOpen: r.FailOpen}
	if r.FailOpen {
		p.Allowed = linux.All()
	} else {
		p.Allowed = append([]uint64(nil), r.Syscalls...)
	}
	for _, n := range p.Allowed {
		p.AllowedNames = append(p.AllowedNames, nameOf(n))
	}
	return p
}

// Seccomp compiles the policy into a classic-BPF seccomp filter
// program; denied syscalls, and every call that is not a native x86-64
// one, fail with EPERM.
func (p *Policy) Seccomp() (*filter.Program, error) {
	return filter.Compile(p.Allowed, filter.ActionErrno)
}

// Phase is one execution phase with its own allow list (§4.7).
type Phase struct {
	// Allowed syscalls during this phase.
	Allowed []uint64 `json:"allowed"`
	// Transitions maps destination phase index to the syscalls whose
	// invocation switches to it.
	Transitions map[int][]uint64 `json:"transitions"`
	// CodeBytes is the amount of program code mapped to the phase.
	CodeBytes uint64 `json:"code_bytes"`
}

// PhaseReport is the phase automaton of a program.
type PhaseReport struct {
	Start  int     `json:"start"`
	Phases []Phase `json:"phases"`
}

// PhaseOptions tunes phase detection.
type PhaseOptions struct {
	// BackPropagate prepares the policies for seccomp's tighten-only
	// semantics by unioning future phases' allow lists backward.
	BackPropagate bool
	// CompactBytes, when non-zero, merges small single-exit phases into
	// their successors until every remaining phase either exceeds this
	// code size or branches. Allowed sets only grow, so the compacted
	// policies stay sound.
	CompactBytes uint64
}

// Phases extracts execution phases and per-phase allow lists from the
// analyzed program.
func (r *Analysis) Phases(opts PhaseOptions) (*PhaseReport, error) {
	if r.report == nil {
		return nil, fmt.Errorf("bside: phases unavailable for a cache-served analysis (re-analyze without the cache entry)")
	}
	if r.FailOpen {
		return nil, fmt.Errorf("bside: phase policies are meaningless for a fail-open analysis")
	}
	phaseStart := time.Now()
	aut, err := phases.Detect(phases.Input{
		Graph: r.report.Graph,
		Emits: r.report.Emits(),
	}, phases.Config{BackPropagate: opts.BackPropagate})
	if err != nil {
		return nil, err
	}
	if opts.CompactBytes > 0 {
		aut = aut.Compact(opts.CompactBytes)
	}
	if r.Timings != nil {
		// The phases stage runs on demand; fold its cost into the
		// analysis' stage record when it does.
		r.Timings.Phases = time.Since(phaseStart)
		r.Timings.Total = r.Timings.Decode + r.Timings.Wrappers +
			r.Timings.Identify + r.Timings.Stitch + r.Timings.Phases
	}
	out := &PhaseReport{Start: aut.Start, Phases: make([]Phase, len(aut.Phases))}
	for i, ph := range aut.Phases {
		out.Phases[i] = Phase{
			Allowed:     ph.Allowed,
			Transitions: ph.Transitions,
			CodeBytes:   ph.CodeSize,
		}
	}
	return out, nil
}

// Disassembly renders the main binary's recovered control-flow graph as
// a human-readable listing (functions, blocks, instructions, syscall
// sites and import calls annotated). Empty for cache-served analyses,
// which carry no CFG.
func (r *Analysis) Disassembly() string {
	if r.report == nil {
		return ""
	}
	return r.report.Graph.Listing()
}

// SyscallName exposes the kernel name for a syscall number, or
// syscall_N when the table names no such number, as Names names it.
func SyscallName(n uint64) string { return nameOf(n) }

// SyscallNumber exposes the number for a kernel syscall name.
func SyscallNumber(name string) (uint64, bool) { return linux.Number(name) }
