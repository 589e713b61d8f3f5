package ident

import (
	"reflect"
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/symex"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// memoBinary is a corpus profile with every site pattern the memo must
// handle: same-block immediates, wrappers (whose call-site searches
// cross functions), stack wrappers, handlers, dead code.
func memoBinary(t *testing.T) *elff.Binary {
	t.Helper()
	bin, err := corpus.BuildProgram(corpus.Profile{
		Name: "memo", Kind: elff.KindStatic,
		HotDirect: 6, HotWrapper: 3, HotStack: 2, Handlers: 2,
		ColdDirect: 3, ColdWrapper: 1, StackedTruth: 1,
		Filler: 12, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// stripStats clears the wall-clock fields that legitimately differ
// between runs; everything else must be byte-identical.
func stripStats(rep *Report) *Report {
	c := *rep
	c.Stats.WrapperDetect = 0
	c.Stats.Identify = 0
	return &c
}

// TestMemoizedReportIsByteIdentical analyzes the same binary three
// ways — memo off, memo cold, memo warm — and requires identical
// reports, including per-site details and effort stats.
func TestMemoizedReportIsByteIdentical(t *testing.T) {
	bin := memoBinary(t)
	recover := func() *cfg.Graph {
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	bud := func() *symex.Budget { return symex.NewBudget() }
	plainBud, coldBud, warmBud := bud(), bud(), bud()

	plain, err := Analyze(recover(), Config{Budget: plainBud})
	if err != nil {
		t.Fatal(err)
	}
	memo := &Memo{}
	cold, err := Analyze(recover(), Config{Memo: memo, Budget: coldBud})
	if err != nil {
		t.Fatal(err)
	}
	st := memo.Stats()
	if st.Entries == 0 || st.Misses == 0 {
		t.Fatalf("cold run populated nothing: %+v", st)
	}
	warm, err := Analyze(recover(), Config{Memo: memo, Budget: warmBud})
	if err != nil {
		t.Fatal(err)
	}
	if hits := memo.Stats().Hits; hits == 0 {
		t.Fatalf("warm run hit nothing: %+v", memo.Stats())
	}
	// Memo hits replay the recorded consumption, so all three runs must
	// drain their budgets identically — a tight budget has to exhaust
	// at the same point with and without the memo.
	if plainBud.Steps() != warmBud.Steps() || plainBud.Forks() != warmBud.Forks() ||
		plainBud.Steps() != coldBud.Steps() || plainBud.Forks() != coldBud.Forks() {
		t.Fatalf("budget drain diverged: plain %d/%d, cold %d/%d, warm %d/%d",
			plainBud.Steps(), plainBud.Forks(), coldBud.Steps(), coldBud.Forks(),
			warmBud.Steps(), warmBud.Forks())
	}

	// Site results carry *cfg.Block pointers from their own graph;
	// compare the value content instead.
	norm := func(rep *Report) *Report {
		c := stripStats(rep)
		sites := make([]SiteResult, len(c.Sites))
		for i, s := range c.Sites {
			s.Block = nil
			if s.Syscalls == nil {
				s.Syscalls = []uint64{}
			}
			sites[i] = s
		}
		c.Sites = sites
		return c
	}
	if !reflect.DeepEqual(norm(plain), norm(cold)) {
		t.Fatalf("memo-cold drifted from memo-off:\n%+v\nvs\n%+v", norm(cold), norm(plain))
	}
	if !reflect.DeepEqual(norm(plain), norm(warm)) {
		t.Fatalf("memo-warm drifted from memo-off:\n%+v\nvs\n%+v", norm(warm), norm(plain))
	}
}

// TestMemoConfKeyCarriesResolverConfig: the resolver knob is part of
// every memo key, so per-function summaries recorded under one
// resolver configuration are unreadable under another. The zero value
// normalizes to the default layer before keys are built (Prepare runs
// withDefaults first), so zero and explicit-default share entries.
func TestMemoConfKeyCarriesResolverConfig(t *testing.T) {
	key := func(rl int) string {
		return memoConfKey(Config{ResolverLayers: rl}.withDefaults())
	}
	if key(0) != key(2) {
		t.Fatalf("zero and explicit default must share memo keys:\n%q\nvs\n%q", key(0), key(2))
	}
	seen := map[string]int{}
	for _, rl := range []int{-1, 1, 2} {
		k := key(rl)
		if prev, dup := seen[k]; dup {
			t.Fatalf("resolver settings %d and %d share memo conf key %q", prev, rl, k)
		}
		seen[k] = rl
	}
}

// TestMemoNotSharedAcrossResolverConfigs: a memo entry recorded with
// the resolver off must never be replayed into a resolver-on analysis
// (or vice versa) — the recorded search could have walked edges the
// other configuration prunes.
func TestMemoNotSharedAcrossResolverConfigs(t *testing.T) {
	// A deep fork-free block chain: every jmp ends a block, so the
	// backward search crosses many blocks inside one function.
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 1)
		for i := 0; i < 24; i++ {
			b.JmpLabel("n" + string(rune('a'+i)))
			b.Label("n" + string(rune('a'+i)))
		}
		b.Syscall()
		b.Ret()
	}, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}

	memo := &Memo{}
	if _, err := Analyze(g, Config{Memo: memo, ResolverLayers: -1}); err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Entries == 0 {
		t.Fatal("resolver-off run memoized nothing")
	}

	// The same memo under the default resolver config: its entries carry
	// the resolver-off conf key, so nothing may hit.
	before := memo.Stats().Hits
	rep, err := Analyze(g, Config{Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if hits := memo.Stats().Hits - before; hits != 0 {
		t.Fatalf("resolver-on analysis replayed %d resolver-off memo entries", hits)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{1}) {
		t.Fatalf("recomputed result wrong: %v", rep.Syscalls)
	}
}

// TestCrossFunctionSearchIsNotMemoized: a site whose value flows in
// from a caller makes the backward search leave the containing
// function; such results must never enter the memo (their content key
// would not cover the caller).
func TestCrossFunctionSearchIsNotMemoized(t *testing.T) {
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 39) // getpid, defined in the caller
		b.CallLabel("helper")
		b.Ret()
		b.Func("helper")
		b.Nop()
		b.Syscall() // rax comes from _start
		b.Ret()
	}, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	memo := &Memo{}
	rep, err := Analyze(g, Config{Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{39}) || rep.FailOpen {
		t.Fatalf("analysis wrong before memo question even arises: %+v", rep)
	}
	// The helper's wrapper verdict (confined by construction) may be
	// memoized; the cross-function site identification must not be.
	memo.entries.Range(func(k, v any) bool {
		if key := k.(string); key[0] == 'i' {
			t.Fatalf("cross-function site result was memoized under %q", key)
		}
		return true
	})
}
