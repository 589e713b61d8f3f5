package shared

import (
	"context"
	"fmt"
	"strings"

	"bside/internal/cache"
	"bside/internal/elff"
	"bside/internal/ident"
)

// Cache entry kinds: the two artifact classes of the decoupled design —
// per-library shared interfaces (Figure 3's L) and whole-program
// identification summaries — plus the budget verdicts of programs the
// analysis could not decide. Undecided entries share the program
// fingerprint but live in their own partition, so no summary lookup
// (CachedSummary, CachedSummaryByHash) can ever answer with one.
const (
	kindInterface = "interface"
	kindProgram   = "program"
	kindUndecided = "undecided"
)

// Summary is the serializable reduced form of a ProgramReport: the
// fields that survive a cache round trip. The CFG and the per-site
// identification report are deliberately dropped — they dwarf the
// summary and only matter for phase detection and diagnostics, which
// re-analyze when needed. The per-import breakdown is not stored
// either: nothing reads it back from a cached summary.
type Summary struct {
	Syscalls []uint64 `json:"syscalls,omitempty"`
	FailOpen bool     `json:"fail_open,omitempty"`
	Wrappers int      `json:"wrappers,omitempty"`
	Imports  []string `json:"imports,omitempty"`
	// Cached reports whether the summary was served from the store
	// rather than computed. Not persisted.
	Cached bool `json:"-"`
}

// normalize restores the computed-result shape after a cache round
// trip: empty collections are stored as absent (omitempty) and load
// back as nil, but callers are promised byte-identical results across
// the cache cold and warm paths — found by the fuzzing oracle on
// import-free binaries — so nil becomes the empty slice again.
func (s *Summary) normalize() {
	if s.Syscalls == nil {
		s.Syscalls = []uint64{}
	}
	if s.Imports == nil {
		s.Imports = []string{}
	}
}

// confFingerprint encodes every analyzer setting that can change an
// entry of the given kind. Entries stored under a different
// fingerprint are misses, so tuning the analyzer never serves stale
// results. MaxCFGInsns only bounds the main executable's CFG recovery
// (AnalyzeLibrary does not use it), so it is folded into program
// fingerprints only — retuning it must not bust the fleet's library
// interfaces. So is the program version (v=), which changes whenever
// the same image and settings get a different program answer: at 2, a
// shared object that exports a syscall wrapper answers fail-open, so
// summaries and verdicts stored before are misses. Keep the token
// short: the default program fingerprint plus "|deps:" fits in 32
// bytes, so CachedSummaryByHash builds that prefix in Go's stack
// buffer for non-escaping concatenations, and a warm hash lookup
// allocates nothing for it.
func (a *Analyzer) confFingerprint(kind string) string {
	c := a.Config
	// ResolverLayers is normalized exactly as ident.Config.withDefaults
	// does (zero means the default, layer 2), so an explicit default and
	// the zero value share cache entries — they produce identical
	// results — while any other layer setting gets its own namespace.
	rl := c.ResolverLayers
	if rl == 0 {
		rl = 2
	}
	fp := fmt.Sprintf("resolver=%d", rl)
	if kind == kindProgram {
		fp += fmt.Sprintf(" v=2 maxcfg=%d", a.MaxCFGInsns)
	}
	if c.Budget != nil {
		fp += fmt.Sprintf(" budget=%d/%d/%d", c.Budget.MaxSteps, c.Budget.MaxForks, c.Budget.MaxVisits)
	}
	return fp
}

// depHashes renders a DT_NEEDED list's transitive closure as
// name=sha256 pairs, sorted. A cached result is only valid while every
// dependency image is byte-identical: upgrading a library busts the
// entries of everything linking it, even though the dependents' own
// images are unchanged.
func (a *Analyzer) depHashes(needed []string) (string, error) {
	cl, err := a.closureOf(needed)
	if err != nil {
		return "", err
	}
	return cl.deps, cl.depsErr
}

// entryConf builds the cache fingerprint for entries of one kind
// derived from an image with the given content hash and DT_NEEDED
// list, and reports whether caching is possible at all (a store is
// configured, the image has a content hash, and the dependency closure
// is hashable).
func (a *Analyzer) entryConf(kind, hash string, needed []string) (string, bool) {
	if a.Cache == nil || hash == "" {
		return "", false
	}
	deps, err := a.depHashes(needed)
	if err != nil {
		return "", false
	}
	return a.confFingerprint(kind) + "|deps:" + deps, true
}

// CachedSummary probes the program cache for an image identified only
// by its content hash and DT_NEEDED list — the two facts a cheap
// identity parse (elff.ReadIdentity) yields — and returns the
// persisted summary on a hit. The warm batch path rides on this: a
// fleet re-probe never pays the full ELF parse, let alone a decoded
// instruction, for a binary whose analysis is already stored.
func (a *Analyzer) CachedSummary(hash string, needed []string) (*Summary, bool) {
	conf, confOK := a.entryConf(kindProgram, hash, needed)
	if !confOK {
		return nil, false
	}
	sum, ok := cache.Load[Summary](a.Cache, kindProgram, hash, conf)
	if !ok {
		return nil, false
	}
	sum.Cached = true
	sum.normalize()
	return &sum, true
}

// CachedSummaryByHash probes the program cache knowing nothing but the
// image's content hash — the resident service's `?hash=` lookup path,
// where no image bytes exist to parse at all. The stored entry's
// fingerprint carries everything needed to validate it: the analyzer
// settings must match this analyzer's, and every dependency named in
// the stored closure is re-hashed through the library loader so a
// changed library image is a miss here exactly as it is for
// CachedSummary. The DT_NEEDED list is recovered from the stored
// closure rather than an ELF parse, so a warm lookup decodes nothing.
func (a *Analyzer) CachedSummaryByHash(hash string) (*Summary, bool) {
	if a.Cache == nil || hash == "" {
		return nil, false
	}
	sum, conf, ok := cache.LoadAny[Summary](a.Cache, kindProgram, hash)
	if !ok {
		return nil, false
	}
	want := a.confFingerprint(kindProgram) + "|deps:"
	if !strings.HasPrefix(conf, want) {
		return nil, false
	}
	deps := conf[len(want):]
	if deps != "" {
		// Re-validate the closure: each stored name=sha256 pair must
		// match the loader's current image, or the entry is stale.
		names := make([]string, 0, strings.Count(deps, ",")+1)
		for _, pair := range strings.Split(deps, ",") {
			name, _, found := strings.Cut(pair, "=")
			if !found {
				return nil, false
			}
			names = append(names, name)
		}
		current, err := a.depHashes(names)
		if err != nil || current != deps {
			return nil, false
		}
	}
	sum.Cached = true
	sum.normalize()
	return &sum, true
}

// ComputeSummaryCtx is the miss half of a cache-aware analysis: it
// runs the full analysis and persists the summary, without re-probing
// the store (callers probe with CachedSummary first). With no store
// configured it skips every store step. ctx bounds the analysis (see
// ProgramCtx for the cancellation semantics).
//
// A budget verdict reached under a count limit (symex steps or forks)
// is as deterministic as a summary: the same image, configuration and
// dependency closure exhaust the same budget on every run. Such a
// verdict is stored as an "undecided" entry under the program
// fingerprint and replayed, with identical error text, before any
// analysis starts. Verdicts that depend on the wall clock or the caller
// (a deadline, a cancellation, any error under a done context) and
// every other failure are never stored.
func (a *Analyzer) ComputeSummaryCtx(ctx context.Context, bin *elff.Binary) (*Summary, *ProgramReport, error) {
	conf, confOK := a.entryConf(kindProgram, bin.Hash, bin.Needed)
	if confOK {
		be, ok := cache.Load[ident.BudgetError](a.Cache, kindUndecided, bin.Hash, conf)
		if ok && (be.Stage == ident.StageWrappers || be.Stage == ident.StageIdentify) {
			return nil, nil, &be
		}
	}
	rep, err := a.ProgramCtx(ctx, bin)
	if err != nil {
		// Only an unwrapped verdict on the program itself is stored: the
		// replay must carry the same text, and a library's exhaustion
		// arrives wrapped in that library's name.
		be, ok := err.(*ident.BudgetError)
		if confOK && ok && be.Cause.Counted() && ctx.Err() == nil {
			_ = a.Cache.Store(kindUndecided, bin.Hash, conf, be)
		}
		return nil, nil, err
	}
	sum := &Summary{
		Syscalls: rep.Syscalls,
		FailOpen: rep.FailOpen,
		Wrappers: len(rep.Main.Wrappers),
		Imports:  rep.Main.ReachableImports,
	}
	if confOK {
		// Best-effort: a failed store only costs a future re-analysis.
		_ = a.Cache.Store(kindProgram, bin.Hash, conf, sum)
	}
	return sum, rep, nil
}
