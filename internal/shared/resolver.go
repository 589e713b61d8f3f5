package shared

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"bside/internal/cache"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/guard"
	"bside/internal/ident"
	"bside/internal/linux"
	"bside/internal/phases"
	"bside/internal/pipeline"
	"bside/internal/symex"
)

// Analyzer orchestrates the decoupled two-phase analysis: the expensive
// per-library phase runs once per library (cached as a shared
// interface), and per-executable analysis resolves foreign symbols
// against those interfaces.
//
// An Analyzer is safe for concurrent use. Library loads and interface
// computations are deduplicated: when two goroutines analyze
// executables sharing a dependency, the dependency's image is loaded
// and its interface computed exactly once, with the second goroutine
// waiting on the first's result.
type Analyzer struct {
	// LoadLib maps a DT_NEEDED name to its parsed image. Calls are
	// deduplicated per name, so the loader itself need not cache.
	LoadLib func(name string) (*elff.Binary, error)
	// Config is the identification configuration template. Its Budget,
	// if set, supplies the limits; every analysis unit (library,
	// executable, module) runs against its own counters so concurrent
	// analyses cannot exhaust each other's budget.
	Config ident.Config
	// MaxCFGInsns bounds CFG recovery of the main executable (0 =
	// cfg.Recover's default); the Table 2 harness uses it to bound
	// per-binary analysis like the paper's wall-clock timeout.
	MaxCFGInsns int
	// Workers is the intra-binary worker-pool size handed to the
	// analysis pipeline: wrapper-detection and site-identification
	// units of one binary run across this many goroutines. 0 or 1 is
	// serial. Results are identical at any worker count.
	Workers int
	// Timeout, when positive, stamps each analysis unit's budget with a
	// wall-clock deadline (the paper's per-binary timeout); an analysis
	// past it fails with ident.ErrTimeout.
	Timeout time.Duration
	// Cache, when set, is the content-addressed store consulted before
	// any expensive work: shared interfaces, whole-program summaries
	// and count-limited budget verdicts are keyed by the SHA-256 of the
	// content they were derived from (plus a configuration and
	// dependency-hash fingerprint where applicable), so results persist
	// across processes and survive library upgrades without going
	// stale.
	Cache *cache.Store
	// DisableFuncMemo has no effect.
	//
	// Deprecated: identification no longer memoizes per-function
	// results, so there is nothing to disable. The field stays because
	// the benchmark harness under bench/ still sets it.
	DisableFuncMemo bool

	mu         sync.Mutex
	interfaces map[string]*Interface
	exportMemo map[string]exportSet
	bins       map[string]*elff.Binary
	binFlight  map[string]*flight[*elff.Binary]
	ifcFlight  map[string]*flight[*Interface]
	closures   map[string]*closure
}

type exportSet struct {
	syscalls []uint64
	failOpen bool
}

// flight is a single-flight slot: the first goroutine to claim a key
// computes, the rest wait on done and share the outcome.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// singleflight runs compute for key exactly once among concurrent
// callers, memoizing successes in memo so later callers never wait.
// mu guards both maps. Failures are not memoized: a later caller
// retries.
//
// compute runs inside a fault boundary: a panic while analyzing a
// shared library becomes that flight's error instead of escaping —
// which matters doubly here, because an escaped panic would skip the
// cleanup below and leave every waiting peer blocked forever on a
// never-closed done channel. Panicked flights are not memoized, so one
// hostile library poisons neither the memo nor later retries.
func singleflight[T any](mu *sync.Mutex, memo map[string]T, flights map[string]*flight[T], key string, compute func() (T, error)) (T, error) {
	mu.Lock()
	if v, ok := memo[key]; ok {
		mu.Unlock()
		return v, nil
	}
	if fl, ok := flights[key]; ok {
		mu.Unlock()
		<-fl.done
		return fl.val, fl.err
	}
	fl := &flight[T]{done: make(chan struct{})}
	flights[key] = fl
	mu.Unlock()

	fl.val, fl.err = guard.Capture1("library", key, compute)
	mu.Lock()
	if fl.err == nil {
		memo[key] = fl.val
	}
	delete(flights, key)
	mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// NewAnalyzer builds an Analyzer around a library loader.
func NewAnalyzer(load func(name string) (*elff.Binary, error), conf ident.Config) *Analyzer {
	return &Analyzer{
		LoadLib:    load,
		Config:     conf,
		interfaces: make(map[string]*Interface),
		exportMemo: make(map[string]exportSet),
		bins:       make(map[string]*elff.Binary),
		binFlight:  make(map[string]*flight[*elff.Binary]),
		ifcFlight:  make(map[string]*flight[*Interface]),
		closures:   make(map[string]*closure),
	}
}

// confFor derives the per-unit identification config: the template with
// a private budget, so concurrent units cannot race on the counters.
//
// ctx, when non-nil, rides the unit's budget: its cancellation channel
// makes the budget exhausted mid-search, and its deadline tightens the
// wall-clock Deadline when it is earlier than the analyzer's own
// Timeout — the per-request deadline of a resident service mapped onto
// the paper's per-binary analysis timeout. Library-interface
// computation passes nil on purpose: that work is shared fleet-wide
// (singleflighted and cached), so one abandoned request must not poison
// the interface every waiting request needs.
func (a *Analyzer) confFor(ctx context.Context) ident.Config {
	conf := a.Config
	conf.Workers = a.Workers
	if conf.Budget != nil {
		conf.Budget = conf.Budget.Clone()
	}
	var deadline time.Time
	if a.Timeout > 0 {
		deadline = time.Now().Add(a.Timeout)
	}
	var cancel <-chan struct{}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
		cancel = ctx.Done()
	}
	if !deadline.IsZero() || cancel != nil {
		if conf.Budget == nil {
			conf.Budget = symex.NewBudget()
		}
		conf.Budget.Deadline = deadline
		conf.Budget.Cancel = cancel
	}
	return conf
}

// loadLib resolves a DT_NEEDED name through LoadLib exactly once,
// memoizing the image and letting concurrent callers share one load.
func (a *Analyzer) loadLib(name string) (*elff.Binary, error) {
	return singleflight(&a.mu, a.bins, a.binFlight, name, func() (*elff.Binary, error) {
		return a.LoadLib(name)
	})
}

// maxChain bounds the DT_NEEDED chain a closure walk follows.
const maxChain = 64

// closure is one DT_NEEDED list's transitive dependency closure, walked
// once and shared by everything that needs it: interface ordering,
// symbol resolution, the export memo and the cache fingerprint.
type closure struct {
	// order lists the members in DFS post-order, so every library comes
	// after everything it needs (§4.5's DAG-compatible ordering).
	order []string
	// names lists the members sorted: the program's global symbol
	// scope in a deterministic search order.
	names []string
	// key renders names canonically, so export sets memoized under
	// different scopes never collide.
	key string
	// deps renders each member as name=sha256 in names order, the
	// dependency part of a cache fingerprint; depsErr is set instead
	// when a member has no content hash.
	deps    string
	depsErr error
}

// closureOf loads the transitive DT_NEEDED closure of needed and
// returns its record. Records are memoized per needed list: LoadLib's
// name→image mapping is fixed for the analyzer's lifetime (loads are
// memoized), so the closure is a pure function of the list. Failures
// (a load error, a cycle, a chain deeper than maxChain) are not
// memoized.
func (a *Analyzer) closureOf(needed []string) (*closure, error) {
	memoKey := strings.Join(needed, "\x00")
	a.mu.Lock()
	cl, ok := a.closures[memoKey]
	a.mu.Unlock()
	if ok {
		return cl, nil
	}
	cl = &closure{}
	// hashes holds the finished members. A member finishes only after
	// everything below it, so a cycle never finishes and runs into the
	// chain bound instead.
	hashes := make(map[string]string)
	var visit func(name string, depth int) error
	visit = func(name string, depth int) error {
		if _, done := hashes[name]; done {
			return nil
		}
		if depth > maxChain {
			return fmt.Errorf("shared: dependency cycle or chain too deep at %q", name)
		}
		bin, err := a.loadLib(name)
		if err != nil {
			return err
		}
		for _, sub := range bin.Needed {
			if err := visit(sub, depth+1); err != nil {
				return err
			}
		}
		hashes[name] = bin.Hash
		cl.order = append(cl.order, name)
		return nil
	}
	for _, name := range needed {
		if err := visit(name, 1); err != nil {
			return nil, err
		}
	}
	cl.names = append([]string(nil), cl.order...)
	sort.Strings(cl.names)
	cl.key = strings.Join(cl.names, ",")
	var sb strings.Builder
	for i, n := range cl.names {
		if hashes[n] == "" {
			cl.depsErr = fmt.Errorf("shared: dependency %q has no content hash", n)
			break
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(hashes[n])
	}
	if cl.depsErr == nil {
		cl.deps = sb.String()
	}
	a.mu.Lock()
	a.closures[memoKey] = cl
	a.mu.Unlock()
	return cl, nil
}

// ensureInterfaces analyzes every library in the dependency closure of
// needed, dependencies first, and returns the closure.
func (a *Analyzer) ensureInterfaces(needed []string) (*closure, error) {
	cl, err := a.closureOf(needed)
	if err != nil {
		return nil, err
	}
	for _, name := range cl.order {
		if err := a.ensureInterface(name); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// ensureInterface makes sure one library's interface is available,
// deduplicating concurrent computations: the first caller computes, the
// rest wait and share the outcome.
func (a *Analyzer) ensureInterface(name string) error {
	_, err := singleflight(&a.mu, a.interfaces, a.ifcFlight, name, func() (*Interface, error) {
		ifc, err := a.computeInterface(name)
		if err == nil {
			a.trimBin(name)
		}
		return ifc, err
	})
	return err
}

// trimBin swaps the memoized library image for a lightweight record
// once the expensive per-library phase is behind it. Only Needed and
// Hash are consulted afterwards (closure walks and cache
// fingerprints); without the trim, a long-lived batch analyzer would
// pin every distinct library's full segment bytes in memory for its
// lifetime. Libraries that came through the mapped-image frontend
// (elff.OpenBinary) release their mapping here — ReleaseImage is a
// no-op for every other load path, so callers handing in-memory
// images to LoadLib keep theirs intact.
func (a *Analyzer) trimBin(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if bin, ok := a.bins[name]; ok {
		_ = bin.ReleaseImage()
		a.bins[name] = &elff.Binary{
			Path:   bin.Path,
			Hash:   bin.Hash,
			Kind:   bin.Kind,
			Entry:  bin.Entry,
			Needed: bin.Needed,
		}
	}
}

// computeInterface produces one library's interface: from the
// content-addressed cache, or by running the expensive per-library
// analysis (and then persisting the result).
func (a *Analyzer) computeInterface(name string) (*Interface, error) {
	bin, err := a.loadLib(name)
	if err != nil {
		return nil, err
	}
	conf, confOK := a.entryConf(kindInterface, bin.Hash, bin.Needed)
	if confOK {
		if ifc, ok := cache.Load[Interface](a.Cache, kindInterface, bin.Hash, conf); ok {
			return &ifc, nil
		}
	}
	cl, err := a.closureOf(bin.Needed)
	if err != nil {
		return nil, err
	}
	wrappers, err := a.importWrappersFor(bin, cl)
	if err != nil {
		return nil, err
	}
	ifc, err := AnalyzeLibrary(bin, name, a.confFor(nil), wrappers)
	if err != nil {
		return nil, err
	}
	if confOK {
		// Caching is best-effort; analysis correctness never depends
		// on it.
		_ = a.Cache.Store(kindInterface, bin.Hash, conf, ifc)
	}
	return ifc, nil
}

// importWrappersFor inspects the interfaces of bin's dependency closure
// cl and returns the imported symbols that are wrappers.
func (a *Analyzer) importWrappersFor(bin *elff.Binary, cl *closure) (map[string]symex.ParamRef, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]symex.ParamRef)
	for _, im := range bin.Imports {
		ifc, exp := a.findProviderLocked(cl, bin.Needed, im.Name)
		if ifc == nil || exp.Wrapper == nil {
			continue
		}
		ref, err := exp.Wrapper.Ref()
		if err != nil {
			return nil, err
		}
		out[im.Name] = ref
	}
	return out, nil
}

// findProviderLocked locates the export named sym: first in the given
// dependency list's interfaces, then anywhere within cl (the program's
// global symbol scope — its full dependency closure), in name order.
// Resolving only within the program's own closure keeps results
// independent of what else a batch analyzer happened to analyze — and,
// with the persistent cache, keeps that accident of scheduling out of
// content-addressed entries. Callers hold a.mu.
func (a *Analyzer) findProviderLocked(cl *closure, needed []string, sym string) (*Interface, *Export) {
	for _, name := range needed {
		if ifc, ok := a.interfaces[name]; ok {
			if exp, ok := ifc.ExportNamed(sym); ok {
				return ifc, exp
			}
		}
	}
	for _, name := range cl.names {
		if ifc, ok := a.interfaces[name]; ok {
			if exp, ok := ifc.ExportNamed(sym); ok {
				return ifc, exp
			}
		}
	}
	return nil, nil
}

// closedExportSetLocked computes the transitive syscall set of one
// export, following its foreign calls through other interfaces.
// Imports resolve within cl — the analyzed program's full dependency
// closure, matching the dynamic linker's global symbol scope (an
// underlinked library routinely calls symbols provided by a sibling it
// never declares in DT_NEEDED). The memo is keyed by (closure,
// library, export), so results stay deterministic per program even
// when one analyzer serves many programs with different closures.
// Callers hold a.mu.
func (a *Analyzer) closedExportSetLocked(cl *closure, lib *Interface, exp *Export) exportSet {
	out, _ := a.closedExportWalkLocked(cl, lib, exp, 0, make(map[string]int))
	return out
}

// closedExportWalkLocked is the cycle-aware walk behind
// closedExportSetLocked. onStack maps in-progress keys to their depth;
// the second return value is the shallowest on-stack depth the subtree
// reached (len(onStack)+1 when none — no open cycle). A node whose
// subtree reaches above it sits inside a cycle that closes at an
// ancestor: its own set is incomplete (the ancestor's contributions
// are still being accumulated), so it must NOT be memoized — only the
// node where the cycle closes sees the full union. Memoizing the
// incomplete set (as a naive seed-and-store does) would let another
// program's query — or the persistent cache — serve a syscall set
// missing the cycle's contributions.
func (a *Analyzer) closedExportWalkLocked(cl *closure, lib *Interface, exp *Export, depth int, onStack map[string]int) (exportSet, int) {
	key := cl.key + "\x01" + lib.Library + "\x00" + exp.Name
	if memo, ok := a.exportMemo[key]; ok {
		return memo, depth + 1
	}
	if d, ok := onStack[key]; ok {
		// Cycle: contribute nothing here; the ancestor at depth d
		// completes the union.
		return exportSet{}, d
	}
	onStack[key] = depth
	defer delete(onStack, key)

	var set linux.SyscallBitset
	set.AddAll(exp.Syscalls)
	failOpen := exp.FailOpen
	low := depth + 1
	for _, sym := range exp.Imports {
		ifc, sub := a.findProviderLocked(cl, lib.Needed, sym)
		if ifc == nil {
			// A library may import its own export (PLT-routed
			// self-calls); modules especially sit outside scope.
			if e, ok := lib.ExportNamed(sym); ok {
				ifc, sub = lib, e
			}
		}
		if ifc == nil {
			// Unresolvable foreign call: unknowable behaviour.
			failOpen = true
			continue
		}
		es, sublow := a.closedExportWalkLocked(cl, ifc, sub, depth+1, onStack)
		if sublow < low {
			low = sublow
		}
		set.AddAll(es.syscalls)
		failOpen = failOpen || es.failOpen
	}
	out := exportSet{syscalls: set.Slice(), failOpen: failOpen}
	if low >= depth {
		// No cycle stays open above this node — either the subtree is
		// acyclic or every cycle closed here, so the union is complete
		// and safe to memoize. Only strictly-inside-a-cycle nodes
		// (low < depth) carry partial sets.
		a.exportMemo[key] = out
	}
	return out, low
}

// ProgramReport is the whole-program identification result.
type ProgramReport struct {
	// Syscalls is the final identified set: the main binary's own sites
	// plus everything reachable through foreign calls.
	Syscalls []uint64
	// FailOpen marks an unbounded result; callers must treat the
	// effective set as the full table.
	FailOpen bool
	// Main is the executable's own identification report.
	Main *ident.Report
	// PerImport maps each reachable foreign symbol to the syscalls it
	// contributes.
	PerImport map[string][]uint64
	// Graph is the main executable's recovered CFG (phase detection and
	// diagnostics build on it).
	Graph *cfg.Graph
	// Timings is the per-stage cost record of the main binary's
	// analysis: decode, wrappers, identify, and stitch.
	Timings pipeline.Timings
}

// Emits derives the phase-detection emission map for the program: the
// main binary's own sites plus, for every block transferring to an
// imported function (inline GOT calls and calls into PLT-style stubs),
// that import's resolved syscall set.
func (r *ProgramReport) Emits() map[uint64][]uint64 {
	out := phases.EmitsFromReport(r.Main)
	decorate := func(blk *cfg.Block, sym string) {
		if set, ok := r.PerImport[sym]; ok && len(set) > 0 {
			out[blk.Addr] = mergeSets(out[blk.Addr], set)
		}
	}
	g := r.Graph
	blocks := g.Blocks()
	for i := range blocks {
		blk := &blocks[i]
		succs := g.Succs(blk)
		if sym := g.ImportCall(blk); sym != "" && len(succs) > 0 {
			// Inline call through the GOT: the block itself proceeds.
			decorate(blk, sym)
			continue
		}
		// Calls into an import stub: the transition belongs to the
		// calling block (the stub has no local successors).
		for _, e := range succs {
			if e.Kind != cfg.EdgeCall && e.Kind != cfg.EdgeIndirectCall {
				continue
			}
			if sym := g.ImportCall(g.Block(e.To)); sym != "" {
				decorate(blk, sym)
			}
		}
	}
	return out
}

func mergeSets(a, b []uint64) []uint64 {
	var set linux.SyscallBitset
	set.AddAll(a)
	set.AddAll(b)
	return set.Slice()
}

// Program analyzes an executable through the staged pipeline: decode,
// wrapper detection and per-site identification run in
// internal/pipeline (fanned across a.Workers goroutines within the
// binary); for dynamic executables, library interfaces are computed (or
// reused) first and the foreign-call stitching stage folds them in. The
// per-stage costs are recorded on the report's Timings.
func (a *Analyzer) Program(bin *elff.Binary) (*ProgramReport, error) {
	return a.ProgramCtx(context.Background(), bin)
}

// ProgramCtx is Program bounded by a context: cancellation rides the
// analysis budget (stopping symbolic searches mid-flight), is checked
// at every pipeline stage boundary, and its deadline tightens the
// per-unit wall clock. Library-interface computation triggered on the
// way is deliberately NOT canceled with the request — it is shared,
// singleflighted, cacheable work that concurrent requests (and every
// future one) reuse.
func (a *Analyzer) ProgramCtx(ctx context.Context, bin *elff.Binary) (*ProgramReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cl, err := a.ensureInterfaces(bin.Needed)
	if err != nil {
		return nil, err
	}

	conf := a.confFor(ctx)
	wrappers, err := a.importWrappersFor(bin, cl)
	if err != nil {
		return nil, err
	}
	conf.ImportWrappers = wrappers

	res, err := pipeline.Run(bin, pipeline.Config{
		Ident: conf,
		CFG:   cfg.Options{MaxInsns: a.MaxCFGInsns},
		Ctx:   ctx,
	})
	if err != nil {
		return nil, err
	}
	g, rep := res.Graph, res.Report

	// Stitch stage: resolve each reachable foreign call against the
	// dependency closure's interfaces and union the results.
	stitchStart := time.Now()
	var set linux.SyscallBitset
	set.AddAll(rep.Syscalls)
	out := &ProgramReport{
		Main:      rep,
		FailOpen:  rep.FailOpen,
		PerImport: make(map[string][]uint64),
		Graph:     g,
		Timings:   res.Timings,
	}
	a.mu.Lock()
	for _, sym := range rep.ReachableImports {
		ifc, exp := a.findProviderLocked(cl, bin.Needed, sym)
		if ifc == nil {
			out.FailOpen = true
			continue
		}
		es := a.closedExportSetLocked(cl, ifc, exp)
		out.PerImport[sym] = es.syscalls
		out.FailOpen = out.FailOpen || es.failOpen
		set.AddAll(es.syscalls)
	}
	a.mu.Unlock()
	out.Syscalls = set.Slice()
	out.Timings.Add(pipeline.StageStitch, time.Since(stitchStart))
	return out, nil
}

// ModuleCtx analyzes a dlopen-style module (paper §4.5: runtime-loaded
// shared objects are processed alongside the main binary, with module
// identification left to the user). Every exported function is assumed
// callable, so the result is the union of all exports' closed syscall
// sets. A module exporting a syscall wrapper cannot be bounded — its
// numbers come from callers resolved only at runtime — and makes the
// result fail-open.
//
// host is the executable that loads the module (nil if unknown). Real
// plugins routinely import symbols without declaring DT_NEEDED,
// relying on the host process's already-loaded libraries; the module's
// resolution scope is therefore its own dependency closure unioned
// with the host's. That union is deterministic — it depends only on
// the (module, host) pair, never on what else the analyzer has seen.
//
// ctx bounds the analysis (see ProgramCtx for the cancellation
// semantics).
func (a *Analyzer) ModuleCtx(ctx context.Context, bin *elff.Binary, name string, host *elff.Binary) (syscalls []uint64, failOpen bool, err error) {
	// A shallow copy with the widened DT_NEEDED list routes the host's
	// closure through wrapper detection, the interface's Needed, and
	// export-set resolution alike.
	mbin := *bin
	// The memoized export sets depend on the module's content and its
	// resolution scope, so the interface key must identify the
	// (module image, host image) pair — a base name alone would let
	// same-named modules, or the same module under different hosts,
	// poison each other's entries.
	if mbin.Hash == "" {
		return nil, false, fmt.Errorf("shared: module %q has no content hash", name)
	}
	ifcName := "module:" + name + "#" + mbin.Hash[:12]
	if host != nil && len(host.Needed) > 0 {
		if host.Hash == "" {
			return nil, false, fmt.Errorf("shared: host of module %q has no content hash", name)
		}
		merged := append([]string(nil), mbin.Needed...)
		for _, n := range host.Needed {
			if !slices.Contains(merged, n) {
				merged = append(merged, n)
			}
		}
		mbin.Needed = merged
		ifcName += "@" + host.Hash[:12]
	}
	bin = &mbin
	cl, err := a.ensureInterfaces(bin.Needed)
	if err != nil {
		return nil, false, err
	}
	wrappers, err := a.importWrappersFor(bin, cl)
	if err != nil {
		return nil, false, err
	}
	ifc, err := AnalyzeLibrary(bin, ifcName, a.confFor(ctx), wrappers)
	if err != nil {
		return nil, false, err
	}
	var set linux.SyscallBitset
	a.mu.Lock()
	for i := range ifc.Exports {
		exp := &ifc.Exports[i]
		if exp.Wrapper != nil {
			failOpen = true
		}
		es := a.closedExportSetLocked(cl, ifc, exp)
		failOpen = failOpen || es.failOpen
		set.AddAll(es.syscalls)
	}
	a.mu.Unlock()
	return set.Slice(), failOpen, nil
}
