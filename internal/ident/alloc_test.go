package ident

import (
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// Per-site allocation ceilings, enforced with testing.AllocsPerRun so
// the dense-bitset rewrite cannot silently rot back into map-per-search
// allocation patterns. The simple and deep numbers are deliberately
// loose, so they flag regressions of kind (a reintroduced map, an
// unpooled state), not jitter.
const (
	// maxAllocsSimpleSite bounds the Figure 1-A case: the defining
	// immediate next to its syscall, one symbolic run, no BFS.
	maxAllocsSimpleSite = 20
	// maxAllocsDeepSite bounds a cross-block backward search over a
	// multi-block chain: BFS frontier + one directed run per layer.
	maxAllocsDeepSite = 100
	// maxAllocsJoinSite bounds a site with eight predecessors, each
	// defining its own immediate: eight directed runs that each reach
	// the site. Only the result slice is left to allocate, so the
	// ceiling is tight: anything a run allocates costs one allocation
	// per predecessor.
	maxAllocsJoinSite = 4
)

// preparePass builds a Pass over a synthesized static binary.
func preparePass(t *testing.T, fn func(b *asm.Builder)) *Pass {
	t.Helper()
	bin, _ := testbin.Build(t, elff.KindStatic, fn, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	p := Prepare(g, Config{})
	if err := p.DetectWrappers(); err != nil {
		t.Fatalf("wrappers: %v", err)
	}
	if len(p.sites) == 0 {
		t.Fatal("no syscall sites")
	}
	return p
}

// checkSiteAllocs fails when identifying p's first site allocates more
// than ceiling objects per search, or fails open. One warm-up search
// fills the pools first: the ceiling is the steady state, which is
// what every site after the first few pays.
func checkSiteAllocs(t *testing.T, p *Pass, ceiling int) {
	t.Helper()
	site := p.sites[0]
	p.identify(site, nil)
	avg := testing.AllocsPerRun(50, func() {
		if res := p.identify(site, nil); res.FailOpen {
			t.Fatal("site must stay bounded (budget drained?)")
		}
	})
	t.Logf("%.1f allocs/op (ceiling %d)", avg, ceiling)
	if avg > float64(ceiling) {
		t.Fatalf("site search allocates %.1f/op, ceiling %d", avg, ceiling)
	}
}

func TestBackwardSearchAllocCeilingSimple(t *testing.T) {
	p := preparePass(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
	})
	checkSiteAllocs(t, p, maxAllocsSimpleSite)
}

func TestBackwardSearchAllocCeilingDeep(t *testing.T) {
	p := preparePass(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 1)
		// A fork-free chain of jump-linked blocks between the
		// definition and the site forces a real backward BFS with one
		// directed run per frontier layer (and keeps the shared budget
		// comfortable across the measurement runs).
		for i := 0; i < 12; i++ {
			b.JmpLabel("next_" + string(rune('a'+i)))
			b.Label("next_" + string(rune('a'+i)))
		}
		b.Syscall()
		b.Ret()
	})
	checkSiteAllocs(t, p, maxAllocsDeepSite)
}

func TestBackwardSearchAllocCeilingJoin(t *testing.T) {
	if raceEnabled {
		t.Skip("ceiling too tight for the race detector's pool drops")
	}
	p := preparePass(t, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < 8; i++ {
			b.CmpRegImm(x86.RDI, int32(i))
			b.Jcc(x86.CondE, "case_"+string(rune('0'+i)))
		}
		b.Ret()
		for i := 0; i < 8; i++ {
			b.Label("case_" + string(rune('0'+i)))
			b.MovRegImm32(x86.RAX, uint32(i))
			b.JmpLabel("join")
		}
		b.Label("join")
		b.Syscall()
		b.Ret()
	})
	if res := p.identify(p.sites[0], nil); len(res.Syscalls) != 8 {
		t.Fatalf("join site resolved %v, want 0..7", res.Syscalls)
	}
	checkSiteAllocs(t, p, maxAllocsJoinSite)
}

// TestWholeBinaryAllocCeiling pins the end-to-end identification pass
// of a mid-sized corpus binary: the per-site ceilings above catch
// search-local regressions, this one catches pass-level ones (reach
// sets, unit lists, report assembly). Currently ~160 allocs with warm
// package pools; the ceiling leaves room for corpus drift but not for
// a reintroduced per-search map pattern (which costs thousands).
func TestWholeBinaryAllocCeiling(t *testing.T) {
	bin, err := corpus.BuildProgram(corpus.Profile{
		Name: "alloc", Kind: elff.KindStatic,
		HotDirect: 8, HotWrapper: 3, HotStack: 1, Handlers: 2,
		ColdDirect: 4, ColdWrapper: 1, Filler: 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(g, Config{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(g, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 2000
	t.Logf("whole binary: %.0f allocs/op (ceiling %d)", avg, ceiling)
	if avg > ceiling {
		t.Fatalf("whole-binary identify allocates %.0f/op, ceiling %d", avg, ceiling)
	}
}
