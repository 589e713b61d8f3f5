package shared

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"bside/internal/cache"
	"bside/internal/ident"
)

// TestConfFingerprintResolverNamespace: the resolver knob is part of
// the cache fingerprint, with the zero value normalized to the default
// layer exactly as ident.Config.withDefaults does. Explicit-default and
// zero share a namespace (identical results); every other layer
// setting gets its own.
func TestConfFingerprintResolverNamespace(t *testing.T) {
	fp := func(rl int) string {
		a := NewAnalyzer(loader(t), ident.Config{ResolverLayers: rl})
		return a.confFingerprint(kindProgram)
	}
	if fp(0) != fp(2) {
		t.Fatalf("zero and explicit default must share a namespace:\n%q\nvs\n%q", fp(0), fp(2))
	}
	seen := map[string]int{}
	for _, rl := range []int{-1, 1, 2} {
		key := fp(rl)
		if prev, dup := seen[key]; dup {
			t.Fatalf("resolver settings %d and %d share fingerprint %q", prev, rl, key)
		}
		seen[key] = rl
	}
}

// TestResolverConfigBustsProgramCache: a program summary stored under
// one resolver configuration must never be served to an analyzer
// running another — a resolver-off over-approximation served to a
// resolver-on analyzer would silently undo the refinement, and the
// reverse would poison the sound fallback set.
func TestResolverConfigBustsProgramCache(t *testing.T) {
	store, err := cache.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	main := writeImporter(t, 11)

	a1 := NewAnalyzer(loader(t), ident.Config{})
	a1.Cache = store
	sum1, _, err := programSummary(a1, main)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Cached {
		t.Fatal("first run must compute")
	}

	// Explicit default layer: same namespace as the zero value, full hit.
	aDef := NewAnalyzer(loader(t), ident.Config{ResolverLayers: 2})
	aDef.Cache = store
	sumDef, repDef, err := programSummary(aDef, main)
	if err != nil {
		t.Fatal(err)
	}
	if !sumDef.Cached || repDef != nil {
		t.Fatal("explicit-default analyzer must hit the zero-config entry")
	}
	if !reflect.DeepEqual(sumDef.Syscalls, sum1.Syscalls) {
		t.Fatalf("cached summary drifted: %v vs %v", sumDef.Syscalls, sum1.Syscalls)
	}

	// Resolver off: different fingerprint, so the stored entry is a
	// miss and the summary is recomputed from scratch (the store keeps
	// one entry per image, now re-fingerprinted under resolver-off).
	aOff := NewAnalyzer(loader(t), ident.Config{ResolverLayers: -1})
	aOff.Cache = store
	sumOff, repOff, err := programSummary(aOff, main)
	if err != nil {
		t.Fatal(err)
	}
	if sumOff.Cached || repOff == nil {
		t.Fatal("resolver-off analyzer must not be served the resolver-on entry")
	}

	// The entry is now resolver-off: the resolver-on analyzer must miss
	// it in turn, on both the identity-parse and hash-only lookup paths.
	if _, ok := aDef.CachedSummary(main.Hash, []string{"libmid.so"}); ok {
		t.Fatal("resolver-on analyzer was served the resolver-off entry")
	}
	if _, ok := aDef.CachedSummaryByHash(main.Hash); ok {
		t.Fatal("CachedSummaryByHash served an entry across resolver configs")
	}
	if _, ok := aOff.CachedSummaryByHash(main.Hash); !ok {
		t.Fatal("CachedSummaryByHash must hit within the same resolver config")
	}
}

// TestUndecidedEntryFingerprint: an undecided entry carries the program
// fingerprint, so another budget, resolver setting or dependency image
// misses it and recomputes — and a budget large enough decides the
// binary — while the original configuration keeps replaying it.
func TestUndecidedEntryFingerprint(t *testing.T) {
	store := openStore(t)
	bin := hungryImporter(t)
	_, _, cold := cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()}).ComputeSummaryCtx(context.Background(), bin)
	if _, ok := cold.(*ident.BudgetError); !ok {
		t.Fatalf("cold verdict %v, want a BudgetError", cold)
	}

	otherBudget := tightBudget()
	otherBudget.MaxSteps++
	upgraded := NewAnalyzer(upgradedLibcLoader(t), ident.Config{Budget: tightBudget()})
	upgraded.Cache = store
	for name, a := range map[string]*Analyzer{
		"budget":   cachedAnalyzer(t, store, ident.Config{Budget: otherBudget}),
		"resolver": cachedAnalyzer(t, store, ident.Config{Budget: tightBudget(), ResolverLayers: -1}),
		"library":  upgraded,
	} {
		if got := replay(a, bin); got != errRecomputed {
			t.Errorf("%s: served a foreign undecided entry: %v", name, got)
		}
	}

	sum, rep, err := cachedAnalyzer(t, store, ident.Config{}).ComputeSummaryCtx(context.Background(), bin)
	if err != nil || sum.Cached || rep == nil || len(sum.Syscalls) == 0 {
		t.Fatalf("the default budget must decide the binary afresh: sum=%+v err=%v", sum, err)
	}
	if got := replay(cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()}), bin); got == nil || got.Error() != cold.Error() {
		t.Fatalf("the tight budget no longer replays its verdict: %v", got)
	}
}

// TestResolverConfigBustsPackTier extends the cross-config poisoning
// guarantee to the pack tier: a program summary compacted into a pack
// under one resolver configuration must never be served to an analyzer
// running another, while the same configuration keeps hitting the pack.
func TestResolverConfigBustsPackTier(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	main := writeImporter(t, 23)

	a1 := NewAnalyzer(loader(t), ident.Config{})
	a1.Cache = store
	sum1, _, err := programSummary(a1, main)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Cached {
		t.Fatal("first run must compute")
	}
	cs, err := store.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Packed == 0 {
		t.Fatalf("nothing packed: %+v", cs)
	}

	// Fresh handle with the memory tier off: the pack is the only tier
	// that can answer (the loose entry was pruned by compaction).
	packed, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	packed.DisableMemoryTier()

	aSame := NewAnalyzer(loader(t), ident.Config{ResolverLayers: 2})
	aSame.Cache = packed
	sumSame, rep, err := programSummary(aSame, main)
	if err != nil {
		t.Fatal(err)
	}
	if !sumSame.Cached || rep != nil {
		t.Fatal("same-config analyzer must be served from the pack")
	}
	if !reflect.DeepEqual(sumSame.Syscalls, sum1.Syscalls) {
		t.Fatalf("pack-served summary drifted: %v vs %v", sumSame.Syscalls, sum1.Syscalls)
	}
	if st := packed.Stats(); st.PackHits == 0 {
		t.Fatalf("hit did not come from the pack: %+v", st)
	}

	aOff := NewAnalyzer(loader(t), ident.Config{ResolverLayers: -1})
	aOff.Cache = packed
	sumOff, repOff, err := programSummary(aOff, main)
	if err != nil {
		t.Fatal(err)
	}
	if sumOff.Cached || repOff == nil {
		t.Fatal("resolver-off analyzer was served a packed resolver-on entry")
	}
}
