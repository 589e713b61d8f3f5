package symex_test

import (
	"fmt"
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/symex"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// TestReleasedSitesStayClearToCapacity: Release clears only the slots a
// run used, which is enough only while every slot past the length is
// already nil. A run that collects thousands of site states is released,
// then a one-state run that gets the same pooled slice back is released:
// the slice must still be nil up to its capacity, or the pool would keep
// the large run's states reachable.
func TestReleasedSitesStayClearToCapacity(t *testing.T) {
	const diamonds = 12 // 4096 paths reach the site
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < diamonds; i++ {
			skip := fmt.Sprintf("skip_%d", i)
			b.CmpRegImm(x86.RDI, int32(i))
			b.Jcc(x86.CondNE, skip)
			b.IncReg(x86.RBX)
			b.Label(skip)
		}
		b.MovRegImm32(x86.RAX, 39)
		b.Syscall()
		b.Ret()
	}, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := cfg.NewBlockSet(g.NumBlocks())
	for id := 0; id < g.NumBlocks(); id++ {
		all.Add(cfg.BlockID(id))
	}
	start, _ := g.BlockAt(bin.Entry)
	site := g.SyscallBlocks()[0]

	requireClear := func(what string, p *[]*symex.State) {
		t.Helper()
		for i, st := range (*p)[:cap(*p)] {
			if st != nil {
				t.Fatalf("%s: pooled slot %d of %d still holds a state", what, i, cap(*p))
			}
		}
	}
	// sync.Pool may drop an item or hand out another one (the race
	// detector drops some on purpose), so retry until the one-state run
	// reuses the large run's slice.
	for try := 0; try < 20; try++ {
		m := symex.NewMachine(g, symex.NewBudget()) // a fresh fork budget per try
		big := m.RunToSite(start, symex.NewState(), all, site)
		if big.HitBudget || len(big.SiteStates) != 1<<diamonds {
			t.Fatalf("large run: %d site states, budget hit %v", len(big.SiteStates), big.HitBudget)
		}
		large := symex.PooledSites(&big)
		m.Release(&big)
		requireClear("after the large run", large)

		one := m.RunToSite(site, symex.NewState(), all, site)
		if len(one.SiteStates) != 1 {
			t.Fatalf("one-state run: %d site states", len(one.SiteStates))
		}
		reused := symex.PooledSites(&one)
		m.Release(&one)
		requireClear("after the one-state run", reused)
		if reused == large {
			return
		}
	}
	t.Skip("the pool never handed the large run's slice back")
}
