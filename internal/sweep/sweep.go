// Package sweep is the distro-scale ingestion harness behind `bside
// sweep`: it walks a directory tree (an extracted container image, a
// /usr partition, a firmware dump), filters to x86-64 ELF executables
// and libraries by magic sniff, and streams every candidate through
// the analyzer with bounded memory — a bounded-queue producer/consumer
// pipeline, so a million-file tree never materializes a path slice —
// emitting one result per binary as it completes plus a rolling fleet
// summary (throughput, warm-hit ratio, latency quantiles,
// failure-phase counts).
//
// With Diff enabled every successfully analyzed binary is also run
// through the cheap syspeek-style linear scanner
// (internal/baseline.Syspeek), which finds code through debug/elf
// rather than the analyzer's reader, and the two answers are compared:
// a scan-resolved syscall number missing from B-Side's set, or a
// decided, empty set where the scanner saw syscall sites, is a
// soundness disagreement worth a human look, while numbers only B-Side
// finds are the expected precision gap of a scanner that cannot follow
// wrappers or stack-carried values. A binary the analyzer's ELF model
// cannot represent (bside.ErrLayout) fails under its own "layout" phase.
package sweep

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bside"
	"bside/internal/baseline"
	"bside/internal/metrics"
)

// Options tunes one sweep.
type Options struct {
	// Analyzer runs the per-binary analyses. Required; configure its
	// cache, library dir and worker options before the sweep.
	Analyzer *bside.Analyzer
	// Jobs is the number of concurrent analysis workers (0 =
	// GOMAXPROCS).
	Jobs int
	// QueueDepth bounds the path queue between the tree walker and the
	// workers (0 = 256): the walker blocks instead of buffering a
	// huge tree's worth of paths, keeping memory flat however large
	// the corpus.
	QueueDepth int
	// Diff runs the syspeek-style linear scanner on every analyzed
	// binary and records where the cheap scan and B-Side disagree.
	Diff bool
	// OnResult, when set, is invoked once per candidate binary as its
	// analysis completes — completion order, calls serialized. Skipped
	// non-ELF files do not produce results.
	OnResult func(*Result)
	// OnProgress, when set, is invoked with a rolling summary every
	// ProgressEvery completed binaries (serialized with OnResult).
	OnProgress func(*Summary)
	// ProgressEvery is the OnProgress cadence (0 = 64).
	ProgressEvery int
}

// Diff is the per-binary differential record against the linear
// scanner.
type Diff struct {
	// ScanSites and ScanResolved count the scanner's syscall sites
	// seen and resolved.
	ScanSites    int `json:"scan_sites"`
	ScanResolved int `json:"scan_resolved"`
	// ScanOnly lists scan-resolved syscall numbers absent from
	// B-Side's set — soundness disagreements (empty on agreeing
	// binaries; never populated for fail-open analyses, whose
	// effective set is the full table).
	ScanOnly []uint64 `json:"scan_only,omitempty"`
	// BSideOnly counts numbers only B-Side found — the scanner's
	// expected precision gap, recorded for fleet-level trend lines.
	BSideOnly int `json:"bside_only"`
}

// Result is one binary's sweep envelope. `bside sweep` renders each
// NDJSON line as this envelope followed by the analysis record
// (bside.Record) of Analysis, when there is one.
type Result struct {
	Path   string `json:"path"`
	Cached bool   `json:"cached,omitempty"`
	// Ms is the per-binary wall clock in milliseconds.
	Ms float64 `json:"ms"`
	// Phase is the failure phase for failed candidates: "open",
	// "layout" (a valid image the analyzer cannot model yet,
	// bside.ErrLayout), "analyze", "panic" (the analysis crashed and
	// was contained — the binary is recorded as hostile/broken and the
	// fleet moved on) or "scan". Empty on success.
	Phase string `json:"phase,omitempty"`
	Error string `json:"error,omitempty"`
	Diff  *Diff  `json:"diff,omitempty"`

	// Analysis is the underlying result: set on success and on a "scan"
	// failure, nil otherwise. Not serialized here; callers render its
	// record.
	Analysis *bside.Analysis `json:"-"`
}

// Summary is the fleet-level rollup.
type Summary struct {
	// Files counts regular files the walker saw; ELFs the subset that
	// passed the x86-64 ELF sniff; Skipped the rest. SkippedArches
	// histograms the skipped subset that is a valid ELF executable or
	// shared object for an unsupported machine (keyed by architecture),
	// so fleet coverage of a mixed-arch tree is visible at a glance.
	Files         int64            `json:"files"`
	ELFs          int64            `json:"elfs"`
	Skipped       int64            `json:"skipped"`
	SkippedArches map[string]int64 `json:"skipped_arches,omitempty"`
	// Analyzed counts successful analyses; Warm the subset served
	// from the persistent cache; Failed the candidates whose analysis
	// (or scan) failed.
	Analyzed int64 `json:"analyzed"`
	Warm     int64 `json:"warm"`
	Failed   int64 `json:"failed"`
	// FailurePhases histograms failures by phase ("walk", "open",
	// "layout", "analyze", "panic", "scan").
	FailurePhases  map[string]int64 `json:"failure_phases,omitempty"`
	ElapsedMs      float64          `json:"elapsed_ms"`
	BinariesPerSec float64          `json:"binaries_per_sec"`
	// WarmHitRatio is Warm/Analyzed (0 when nothing analyzed).
	WarmHitRatio float64 `json:"warm_hit_ratio"`
	// PackHits counts cache loads the analyzer served from a
	// memory-mapped cache pack so far (see bside.CacheStats.PackHits);
	// PackBytesMapped gauges the mapped pack bytes. Both zero when no
	// pack is attached.
	PackHits        uint64 `json:"pack_hits,omitempty"`
	PackBytesMapped int64  `json:"pack_bytes_mapped,omitempty"`
	// P50Ms and P99Ms are per-binary latency quantiles from the
	// log2-bucket histogram (upper-bound estimates).
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// ScanDisagreements counts binaries whose Diff.ScanOnly was
	// non-empty, or whose decided answer was empty although the scanner
	// saw a syscall site (0 unless Options.Diff).
	ScanDisagreements int64 `json:"scan_disagreements"`
	// Latency is the full per-binary latency distribution.
	Latency metrics.Snapshot `json:"latency"`
}

// state is the shared mutable context of one Run.
type state struct {
	opts     Options
	files    atomic.Int64
	elfs     atomic.Int64
	skipped  atomic.Int64
	analyzed atomic.Int64
	warm     atomic.Int64
	failed   atomic.Int64
	scanDis  atomic.Int64
	hist     metrics.Histogram
	start    time.Time

	mu      sync.Mutex // serializes emits and the phase/arch maps
	phases  map[string]int64
	arches  map[string]int64
	emitted int64
}

func (st *state) fail(phase string) {
	st.failed.Add(1)
	st.mu.Lock()
	st.phases[phase]++
	st.mu.Unlock()
}

// emit delivers one result (and, on cadence, a progress summary) under
// the emit lock.
func (st *state) emit(res *Result) {
	every := st.opts.ProgressEvery
	if every <= 0 {
		every = 64
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.opts.OnResult != nil {
		st.opts.OnResult(res)
	}
	st.emitted++
	if st.opts.OnProgress != nil && st.emitted%int64(every) == 0 {
		st.opts.OnProgress(st.summaryLocked())
	}
}

func (st *state) summaryLocked() *Summary {
	elapsed := time.Since(st.start)
	s := &Summary{
		Files:             st.files.Load(),
		ELFs:              st.elfs.Load(),
		Skipped:           st.skipped.Load(),
		Analyzed:          st.analyzed.Load(),
		Warm:              st.warm.Load(),
		Failed:            st.failed.Load(),
		ElapsedMs:         float64(elapsed.Microseconds()) / 1000,
		ScanDisagreements: st.scanDis.Load(),
		Latency:           st.hist.Snapshot(),
	}
	if len(st.phases) > 0 {
		s.FailurePhases = make(map[string]int64, len(st.phases))
		for k, v := range st.phases {
			s.FailurePhases[k] = v
		}
	}
	if len(st.arches) > 0 {
		s.SkippedArches = make(map[string]int64, len(st.arches))
		for k, v := range st.arches {
			s.SkippedArches[k] = v
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		s.BinariesPerSec = float64(s.Analyzed) / secs
	}
	if s.Analyzed > 0 {
		s.WarmHitRatio = float64(s.Warm) / float64(s.Analyzed)
	}
	if st.opts.Analyzer != nil {
		cs := st.opts.Analyzer.CacheStats()
		s.PackHits = cs.PackHits
		s.PackBytesMapped = cs.PackBytesMapped
	}
	s.P50Ms = float64(s.Latency.Quantile(0.50).Microseconds()) / 1000
	s.P99Ms = float64(s.Latency.Quantile(0.99).Microseconds()) / 1000
	return s
}

// Run sweeps the tree rooted at root. Per-binary failures are recorded
// in their results and the summary, never aborting the sweep; the
// returned error is reserved for systemic failures (an unusable root,
// a missing analyzer, cancellation).
func Run(ctx context.Context, root string, opts Options) (*Summary, error) {
	if opts.Analyzer == nil {
		return nil, fmt.Errorf("sweep: no analyzer configured")
	}
	if _, err := os.Stat(root); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	st := &state{opts: opts, phases: make(map[string]int64), arches: make(map[string]int64), start: time.Now()}

	// Bounded queue: the walker blocks when the workers fall behind,
	// so the in-flight path set never exceeds depth + jobs however
	// large the tree is.
	paths := make(chan string, depth)
	walkErr := make(chan error, 1)
	go func() {
		defer close(paths)
		walkErr <- filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				// An unreadable directory or a vanished file: count and
				// keep walking the rest of the tree.
				st.fail("walk")
				if d != nil && d.IsDir() {
					return fs.SkipDir
				}
				return nil
			}
			// Regular files only: symlinks are skipped to keep one
			// binary one analysis (distro trees alias heavily) and to
			// make cycles impossible.
			if !d.Type().IsRegular() {
				return nil
			}
			st.files.Add(1)
			select {
			case paths <- path:
				return nil
			case <-ctx.Done():
				return fs.SkipAll
			}
		})
	}()

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range paths {
				st.sweepOne(ctx, path)
			}
		}()
	}
	wg.Wait()
	if err := <-walkErr; err != nil && err != fs.SkipAll {
		return nil, fmt.Errorf("sweep: walk: %w", err)
	}

	st.mu.Lock()
	sum := st.summaryLocked()
	st.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return sum, fmt.Errorf("sweep: aborted: %w", err)
	}
	return sum, nil
}

// sweepOne takes one regular file from sniff to emitted result. A
// panic anywhere in the per-binary path — the analyzer's own fault
// boundaries should have converted it, so this recover is the sweep
// pool's backstop — is recorded as a "panic" failure for this one
// binary; the worker, and with it the rest of the fleet, keeps moving.
func (st *state) sweepOne(ctx context.Context, path string) {
	defer func() {
		if r := recover(); r != nil {
			st.fail("panic")
			st.emit(&Result{Path: path, Phase: "panic", Error: fmt.Sprintf("analysis panicked: %v", r)})
		}
	}()
	sn, err := sniffELF(path)
	if err != nil {
		st.fail("open")
		st.emit(&Result{Path: path, Phase: "open", Error: err.Error()})
		return
	}
	if !sn.candidate {
		st.skipped.Add(1)
		if sn.arch != "" {
			st.mu.Lock()
			st.arches[sn.arch]++
			st.mu.Unlock()
		}
		return
	}
	st.elfs.Add(1)

	begin := time.Now()
	res, err := st.opts.Analyzer.AnalyzeFileContext(ctx, path)
	elapsed := time.Since(begin)
	st.hist.Observe(elapsed)
	out := &Result{Path: path, Ms: float64(elapsed.Microseconds()) / 1000}
	if err != nil {
		// A contained panic gets its own phase: "analyze" failures are
		// expected fleet noise (unbounded sites, timeouts), a panic is a
		// hostile or bug-triggering binary worth triaging separately.
		switch _, isPanic := bside.IsPanic(err); {
		case isPanic:
			out.Phase = "panic"
		case errors.Is(err, bside.ErrLayout):
			out.Phase = "layout"
		default:
			out.Phase = "analyze"
		}
		st.fail(out.Phase)
		out.Error = err.Error()
		st.emit(out)
		return
	}
	out.Cached = res.Cached
	out.Analysis = res

	if st.opts.Diff {
		diff, err := st.diffOne(path, res)
		if err != nil {
			st.fail("scan")
			out.Phase, out.Error = "scan", err.Error()
			st.emit(out)
			return
		}
		out.Diff = diff
		if len(diff.ScanOnly) > 0 || (!res.FailOpen && len(res.Syscalls) == 0 && diff.ScanSites > 0) {
			st.scanDis.Add(1)
		}
	}

	st.analyzed.Add(1)
	if res.Cached {
		st.warm.Add(1)
	}
	st.emit(out)
}

// diffOne runs the linear scanner over the binary's code, as debug/elf
// finds it, and compares. Fail-open analyses compare trivially — their
// effective set is the full table, so nothing the scanner resolves can
// sit outside it.
func (st *state) diffOne(path string, res *bside.Analysis) (*Diff, error) {
	regions, err := baseline.CodeRegions(path)
	if err != nil {
		return nil, err
	}
	scan := baseline.Syspeek(regions)

	d := &Diff{ScanSites: scan.SitesTotal, ScanResolved: scan.SitesResolved}
	if !res.FailOpen {
		for _, n := range scan.Syscalls {
			if !res.Has(n) {
				d.ScanOnly = append(d.ScanOnly, n)
			}
		}
		sort.Slice(d.ScanOnly, func(i, j int) bool { return d.ScanOnly[i] < d.ScanOnly[j] })
	}
	scanSet := make(map[uint64]bool, len(scan.Syscalls))
	for _, n := range scan.Syscalls {
		scanSet[n] = true
	}
	for _, n := range res.Syscalls {
		if !scanSet[n] {
			d.BSideOnly++
		}
	}
	return d, nil
}

// sniff is the 64-byte-header classification of one regular file: a
// candidate for analysis, a foreign-architecture ELF worth counting in
// the fleet summary, or neither.
type sniff struct {
	candidate bool
	// arch names the machine of a valid ELF executable/shared object
	// the analyzer does not support ("" otherwise). Distro trees mix
	// multilib and cross-target binaries in; lumping them into the
	// generic skip count (or worse, the failure phases) hides how much
	// of a fleet the x86-64 analyzer actually covered.
	arch string
}

// sniffELF classifies path from its first 64 bytes — the header is all
// it reads, so a distro tree's scripts, docs and data files cost one
// small read each.
func sniffELF(path string) (sniff, error) {
	f, err := os.Open(path)
	if err != nil {
		return sniff{}, err
	}
	defer f.Close()
	var hdr [64]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && n < 20 {
		// Too short to be an ELF at all; not an error, just not a
		// candidate.
		return sniff{}, nil
	}
	if hdr[0] != 0x7f || hdr[1] != 'E' || hdr[2] != 'L' || hdr[3] != 'F' {
		return sniff{}, nil
	}
	etype := binary.LittleEndian.Uint16(hdr[16:])
	machine := binary.LittleEndian.Uint16(hdr[18:])
	const (
		etExec  = 2
		etDyn   = 3
		emX8664 = 62
	)
	if etype != etExec && etype != etDyn {
		return sniff{}, nil // relocatable objects, core dumps
	}
	if hdr[4] != 2 || hdr[5] != 1 || machine != emX8664 {
		// A real executable or shared object for a machine (or class)
		// this analyzer does not handle: count it by architecture.
		return sniff{arch: archName(hdr[4], machine)}, nil
	}
	return sniff{candidate: true}, nil
}

// archName renders an ELF (class, e_machine) pair for the skip
// histogram, covering the machines a mixed distro tree actually ships.
func archName(class byte, machine uint16) string {
	name := ""
	switch machine {
	case 3:
		name = "i386"
	case 8:
		name = "mips"
	case 20, 21:
		name = "ppc"
	case 22:
		name = "s390"
	case 40:
		name = "arm"
	case 62:
		name = "x86-64" // ELFCLASS32 (x32) lands here
	case 183:
		name = "aarch64"
	case 243:
		name = "riscv"
	default:
		name = fmt.Sprintf("em-%d", machine)
	}
	if class != 2 {
		name += "-elf32"
	}
	return name
}
