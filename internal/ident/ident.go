// Package ident implements B-Side's system-call identification (§4.4 of
// the paper): locating syscall sites on the recovered CFG, detecting
// system-call wrappers with a two-phase heuristic (fast use-define scan
// confirmed by symbolic execution), and determining the possible %rax
// values at each site via a backward breadth-first search over
// predecessors combined with directed forward symbolic execution.
//
// The analysis is exposed in two shapes. Analyze runs everything and
// returns the Report. Prepare returns a Pass whose two stages —
// DetectWrappers and Identify — can be driven (and timed) separately by
// the internal/pipeline package. Both stages decompose into independent
// units (functions for wrapper detection, identification targets for the
// backward search) and fan them across a bounded worker pool when
// Config.Workers exceeds one; unit results are merged in a fixed order,
// so the Report is identical at any worker count.
package ident

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"bside/internal/cfg"
	"bside/internal/faults"
	"bside/internal/guard"
	"bside/internal/linux"
	"bside/internal/symex"
	"bside/internal/x86"
)

// ErrTimeout is returned when the shared symbolic-execution budget is
// exhausted — by step count, fork count, or its wall-clock deadline —
// before the analysis completes: the in-process analog of the paper's
// analysis timeouts. The stages report it wrapped in a *BudgetError.
var ErrTimeout = errors.New("ident: analysis budget exhausted")

// Stages a BudgetError names, as they prefix its message.
const (
	StageWrappers = "wrapper detection"
	StageIdentify = "identification"
)

// BudgetError is the budget-exhausted verdict of one analysis: the
// stage whose search ran out (StageWrappers or StageIdentify) and the
// limit that tripped first. It matches errors.Is(err, ErrTimeout).
type BudgetError struct {
	Stage string
	Cause symex.Cause
}

func (e *BudgetError) Error() string { return e.Stage + ": " + ErrTimeout.Error() }

func (e *BudgetError) Unwrap() error { return ErrTimeout }

// Config tunes the identification pass.
type Config struct {
	// Budget is shared by every symbolic search in this analysis; nil
	// gets a default. Its counters are atomic, so the budget is shared
	// soundly by concurrent units — and a deadline on it bounds the
	// whole analysis' wall clock.
	Budget *symex.Budget
	// Workers is the intra-binary worker-pool size: how many analysis
	// units (wrapper-detection functions, identification targets) run
	// concurrently. 0 or 1 means serial. Any value yields an identical
	// Report — it only changes wall-clock time, never results, so it is
	// excluded from cache fingerprints.
	Workers int
	// ImportWrappers names imported symbols known (from shared-library
	// interfaces) to be syscall wrappers, with the parameter that
	// carries the syscall number.
	ImportWrappers map[string]symex.ParamRef
	// ResolverLayers selects the depth of the layered indirect-call
	// resolver (see resolver.go), which refines the per-site fan-out of
	// indirect calls and jumps before reachability and the backward
	// search run: -1 disables it (every site reaches the whole active
	// address-taken set, the pre-resolver behavior), 1 enables
	// code-pointer provenance through immutable data, 2 — the default
	// for the zero value — adds call-signature pruning on top. Every
	// setting is sound; higher layers only shrink the identified set.
	// The value participates in summary-cache fingerprints.
	ResolverLayers int
}

// Search limits, fixed for every analysis.
const (
	// maxBFSDepth bounds how many predecessor layers the backward
	// search may explore per site.
	maxBFSDepth = 256
	// maxFrontier bounds the total frontier nodes per site.
	maxFrontier = 4_096
	// stackParams is how many stack slots are tagged as parameters
	// during wrapper detection.
	stackParams = 8
)

func (c Config) withDefaults() Config {
	if c.Budget == nil {
		c.Budget = symex.NewBudget()
	}
	if c.ResolverLayers == 0 {
		c.ResolverLayers = 2
	}
	return c
}

// SiteResult describes the outcome for one identification target: a
// syscall instruction, or — for wrapper and import-wrapper redirection —
// one call site of the wrapper.
type SiteResult struct {
	// Addr is the address of the site's final instruction (the syscall
	// or the call into the wrapper).
	Addr uint64
	// Block is the CFG block whose last instruction is the site.
	Block *cfg.Block
	// Kind explains what was identified.
	Kind SiteKind
	// Wrapper is the wrapper function entry for redirected sites.
	Wrapper uint64
	// Syscalls lists the resolved syscall numbers at this site, sorted.
	// Values at or above linux.SyscallSetBits are addresses or artifacts,
	// never syscalls: the backward search drops them as it collects the
	// site's values, so they never reach this list.
	Syscalls []uint64
	// FailOpen is set when the search could not bound the value set;
	// the binary-level report then falls back to the full table for
	// soundness.
	FailOpen bool
	// BlocksExplored counts symbolically executed blocks for this site.
	BlocksExplored int
}

// SiteKind classifies identification targets.
type SiteKind uint8

// Site kinds.
const (
	// SitePlain is a syscall instruction in a non-wrapper function.
	SitePlain SiteKind = iota + 1
	// SiteWrapperDef is a syscall inside a detected wrapper; it carries
	// no values itself (they are attributed to call sites).
	SiteWrapperDef
	// SiteWrapperCall is a call site of a local wrapper function.
	SiteWrapperCall
	// SiteImportCall is a call site of an imported wrapper function.
	SiteImportCall
)

// String names the site kind.
func (k SiteKind) String() string {
	switch k {
	case SitePlain:
		return "plain"
	case SiteWrapperDef:
		return "wrapper-def"
	case SiteWrapperCall:
		return "wrapper-call"
	case SiteImportCall:
		return "import-call"
	}
	return "?"
}

// WrapperInfo describes a detected syscall wrapper.
type WrapperInfo struct {
	FnEntry  uint64
	FnName   string
	SiteAddr uint64
	Param    symex.ParamRef
}

// Stats counts analysis effort (Table 3's "BBs explored" column).
type Stats struct {
	BlocksExplored int
	SyscallSites   int
	Wrappers       int
}

// Report is the identification result for one binary.
type Report struct {
	// Syscalls is the deduplicated, sorted union over all sites. Like
	// each site's list, it holds no value at or above
	// linux.SyscallSetBits.
	Syscalls []uint64
	// Sites holds per-target details, ordered by (Addr, Kind, Wrapper).
	Sites []SiteResult
	// Wrappers lists detected wrapper functions.
	Wrappers []WrapperInfo
	// ReachableImports lists imported symbols the program can call.
	ReachableImports []string
	// FailOpen is set when at least one site could not be bounded; the
	// caller must union the full syscall table to preserve soundness.
	FailOpen bool
	// Stats describes the work performed.
	Stats Stats
}

// Analyze identifies the system calls of the binary behind g, running
// both stages back to back (across conf.Workers goroutines when set).
func Analyze(g *cfg.Graph, conf Config) (*Report, error) {
	p := Prepare(g, conf)
	if err := p.DetectWrappers(); err != nil {
		return nil, err
	}
	return p.Identify()
}

// Pass is the staged form of the identification analysis. A Pass is
// built once per binary by Prepare; DetectWrappers and Identify then
// run as distinct, separately timed pipeline stages. The Pass reads
// the Graph but never mutates it, so its units can share the graph
// with concurrent readers. Everything a Pass owns dies with it: its
// search scratch comes from package-level pools (scratchPool,
// setPool), never from pools of its own.
type Pass struct {
	g       *cfg.Graph
	conf    Config
	machine *symex.Machine
	reach   *cfg.BlockSet

	// siteTargets is the resolver's candidate-target index: site block
	// ID -> refined target set, nil when the resolver is off or found
	// nothing to refine. It never adds edges — allowEdge only filters.
	siteTargets map[cfg.BlockID]*cfg.BlockSet

	sites     []*cfg.Block // reachable syscall sites, address order
	importSet map[string]bool
	imports   []string

	wrappers     map[uint64]*WrapperInfo // function entry -> info
	wrapperInfos []WrapperInfo
}

// scratchPool holds per-search scratch bundles; setPool holds bare
// block sets for the smaller dedup jobs. They recycle buffers across
// units, goroutines and binaries, and are package-level on purpose:
// the runtime keeps a pool it has used reachable until the second GC
// after its last use, so a pool inside a Pass would keep the Pass and
// its graph alive for two GC cycles after the analysis ends. Items
// are sized for the current graph when taken and hold block IDs, never
// block pointers.
var (
	scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}
	setPool     = sync.Pool{New: func() any { return new(cfg.BlockSet) }}
)

// Prepare resolves the cheap shared facts of a binary's identification:
// reachability, the reachable syscall sites, and the reachable imports.
func Prepare(g *cfg.Graph, conf Config) *Pass {
	conf = conf.withDefaults()
	p := &Pass{g: g, conf: conf, machine: symex.NewMachine(g, conf.Budget)}
	if conf.ResolverLayers > 0 && g.Bin != nil {
		p.siteTargets = resolveIndirectSites(g, conf.ResolverLayers)
	}
	p.reach = g.ReachableSetFiltered(p.allowEdge, g.Roots...)

	p.importSet = make(map[string]bool)
	blocks := g.Blocks()
	for i := range blocks {
		blk := &blocks[i]
		if !p.reach.Has(blk.ID) {
			continue
		}
		if name := g.ImportCall(blk); name != "" {
			p.importSet[name] = true
		}
		if g.EndsInSyscall(blk) {
			p.sites = append(p.sites, blk)
		}
	}
	p.imports = sortedStrings(p.importSet)
	return p
}

// getSet returns an empty pooled BlockSet sized for the graph.
func (p *Pass) getSet() *cfg.BlockSet {
	s := setPool.Get().(*cfg.BlockSet)
	s.ResetFor(p.g.NumBlocks())
	return s
}

func putSet(s *cfg.BlockSet) { setPool.Put(s) }

// budgetError is stage's verdict on the pass's exhausted budget.
func (p *Pass) budgetError(stage string) error {
	return &BudgetError{Stage: stage, Cause: p.conf.Budget.Cause()}
}

// forEachUnit runs fn(i) for every unit index in [0, n) across at most
// workers goroutines. fn must confine its writes to slot i of the
// caller's result slice; the caller then merges slots in index order,
// which is what makes the parallel analysis order-invariant. The
// returned error is the lowest-index one, again independent of
// scheduling.
//
// Each unit runs inside its own fault boundary: a panic in fn is
// recovered on the goroutine it happened on (Go offers no other way —
// an unrecovered panic in a pool goroutine kills the process no matter
// what the spawner deferred) and surfaces as that unit's error, so one
// hostile function costs one unit, and the stage above reports it like
// any other failure.
func forEachUnit(n, workers int, fn func(i int) error) error {
	call := func(i int) error {
		return guard.Capture("unit", "", func() error {
			if err := faults.FireIndex(faults.IdentUnit, i); err != nil {
				return err
			}
			return fn(i)
		})
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = call(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DetectWrappers runs phase G — the two-phase wrapper heuristic — once
// per distinct function containing a reachable syscall site. Functions
// are independent units: each goroutine symbolically executes within
// one function's blocks against the shared (atomic) budget. Both
// positive and negative verdicts are kept, so a function with several
// sites is only analyzed once.
func (p *Pass) DetectWrappers() error {
	// Unit list: distinct containing functions, in the address order of
	// their first reachable site.
	type unit struct {
		fn   *cfg.Func
		site *cfg.Block
	}
	var units []unit
	seen := make(map[uint64]bool)
	for _, site := range p.sites {
		fn, ok := p.g.FuncContaining(site.Addr)
		if !ok || seen[fn.Entry] {
			continue
		}
		seen[fn.Entry] = true
		units = append(units, unit{fn: fn, site: site})
	}

	results := make([]*WrapperInfo, len(units))
	err := forEachUnit(len(units), p.conf.Workers, func(i int) error {
		info, err := p.detectWrapper(units[i].fn, units[i].site)
		results[i] = info
		return err
	})
	if err != nil {
		return err
	}
	// The stage's total decides, not whichever run ended last: its
	// last steps may cross the limit with no check left to see them.
	if p.conf.Budget.Exhausted() {
		return p.budgetError(StageWrappers)
	}

	p.wrappers = make(map[uint64]*WrapperInfo)
	for _, info := range results {
		if info != nil {
			p.wrappers[info.FnEntry] = info
			p.wrapperInfos = append(p.wrapperInfos, *info)
		}
	}
	return nil
}

// Identify runs phase H — per-site type identification — and assembles
// the Report. Each identification target (a plain site with its wrapper
// redirections, or one import wrapper's call sites) is an independent
// unit; unit results are merged in unit order, so the Report does not
// depend on scheduling. DetectWrappers must have run first.
func (p *Pass) Identify() (*Report, error) {
	if p.wrappers == nil {
		if err := p.DetectWrappers(); err != nil {
			return nil, err
		}
	}

	// Unit lists: one per reachable syscall site (covering the wrapper
	// redirection fan-out), then one per import wrapper, in sorted name
	// order — a fixed sequence regardless of map iteration.
	siteUnits := p.sites
	var importUnits []string
	for name := range p.conf.ImportWrappers {
		if p.importSet[name] {
			importUnits = append(importUnits, name)
		}
	}
	sort.Strings(importUnits)

	results := make([][]SiteResult, len(siteUnits)+len(importUnits))
	err := forEachUnit(len(results), p.conf.Workers, func(i int) error {
		if i < len(siteUnits) {
			results[i] = p.identifySiteUnit(siteUnits[i])
		} else {
			results[i] = p.identifyImportUnit(importUnits[i-len(siteUnits)])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Wrappers:         p.wrapperInfos,
		ReachableImports: p.imports,
	}
	rep.Stats.SyscallSites = len(p.sites)
	rep.Stats.Wrappers = len(p.wrappers)

	var values linux.SyscallBitset
	for _, unit := range results {
		for _, res := range unit {
			rep.Sites = append(rep.Sites, res)
			rep.Stats.BlocksExplored += res.BlocksExplored
			if res.FailOpen {
				rep.FailOpen = true
			}
			values.AddAll(res.Syscalls)
		}
	}

	if p.conf.Budget.Exhausted() {
		return nil, p.budgetError(StageIdentify)
	}

	rep.Syscalls = values.Append(make([]uint64, 0, values.Len()))
	// One block can be the call site of several targets (an indirect
	// call with multiple wrapper candidates), so Addr alone is not a
	// total order; the (Kind, Wrapper) tiebreak keeps the listing
	// stable across runs and worker counts.
	sort.Slice(rep.Sites, func(i, j int) bool {
		a, b := rep.Sites[i], rep.Sites[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Wrapper < b.Wrapper
	})
	return rep, nil
}

// identifySiteUnit resolves one reachable syscall site: either the site
// itself (plain functions), or — when the containing function is a
// wrapper — the wrapper-def record plus every reachable call site of
// the wrapper, identified against the wrapper's number parameter.
func (p *Pass) identifySiteUnit(site *cfg.Block) []SiteResult {
	if fn, _ := p.g.FuncContaining(site.Addr); fn != nil {
		if w, isWrapper := p.wrappers[fn.Entry]; isWrapper {
			out := []SiteResult{{
				Addr:    p.g.Last(site).Addr,
				Block:   site,
				Kind:    SiteWrapperDef,
				Wrapper: fn.Entry,
			}}
			for _, callBlk := range p.callSitesOf(fn.Entry) {
				res := p.identify(callBlk, &w.Param)
				res.Kind = SiteWrapperCall
				res.Wrapper = fn.Entry
				out = append(out, res)
			}
			return out
		}
	}
	res := p.identify(site, nil)
	res.Kind = SitePlain
	return []SiteResult{res}
}

// identifyImportUnit resolves every reachable call site of one imported
// wrapper (e.g. libc's syscall() used by the program) against the
// parameter recorded in the library's shared interface.
func (p *Pass) identifyImportUnit(name string) []SiteResult {
	param := p.conf.ImportWrappers[name]
	var out []SiteResult
	for _, callBlk := range p.importCallSites(name) {
		pr := param
		res := p.identify(callBlk, &pr)
		res.Kind = SiteImportCall
		out = append(out, res)
	}
	return out
}

// callSitesOf returns the reachable blocks that call the function at
// entry (directly or through a resolved indirect edge).
func (p *Pass) callSitesOf(entry uint64) []*cfg.Block {
	entryBlk, ok := p.g.BlockAt(entry)
	if !ok {
		return nil
	}
	var out []*cfg.Block
	seen := p.getSet()
	for _, e := range p.g.Preds(entryBlk) {
		if e.Kind != cfg.EdgeCall && e.Kind != cfg.EdgeIndirectCall {
			continue
		}
		// An indirect caller the resolver excluded does not actually
		// reach this function; attributing its values here would undo
		// the refinement.
		if !p.allowEdge(e) {
			continue
		}
		if !p.reach.Has(e.From) || !seen.Add(e.From) {
			continue
		}
		out = append(out, p.g.Block(e.From))
	}
	putSet(seen)
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// importCallSites returns reachable blocks that transfer to the named
// import: direct calls through [rip+slot], and calls to its local stub.
func (p *Pass) importCallSites(name string) []*cfg.Block {
	var out []*cfg.Block
	seen := p.getSet()
	defer putSet(seen)
	add := func(id cfg.BlockID) {
		if p.reach.Has(id) && seen.Add(id) {
			out = append(out, p.g.Block(id))
		}
	}
	blocks := p.g.Blocks()
	for i := range blocks {
		blk := &blocks[i]
		if p.g.ImportCall(blk) != name {
			continue
		}
		switch p.g.Last(blk).Op {
		case x86.OpCallInd:
			add(blk.ID)
		case x86.OpJmpInd:
			// A PLT-style stub, reached via EdgeCall from the real
			// call sites.
			for _, e := range p.g.Preds(blk) {
				if (e.Kind == cfg.EdgeCall || e.Kind == cfg.EdgeIndirectCall) && p.allowEdge(e) {
					add(e.From)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func sortedStrings(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
