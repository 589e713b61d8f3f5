package symex

import (
	"fmt"
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/x86"
)

// ladderDiamonds is how many diamonds the ladder chains: 4,096 paths
// reach its site.
const ladderDiamonds = 12

// ladder builds a chain of ladderDiamonds diamonds whose taken arms
// each push a register, so every path writes stack slots of its own
// and each fork has writes to undo. It returns a machine over the
// graph, with limits no ladder run reaches, the entry block, the site
// and an allowed set of every block.
func ladder(tb testing.TB) (*Machine, *cfg.Block, *cfg.Block, *cfg.BlockSet) {
	tb.Helper()
	g, syms := recoverGraph(tb, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < ladderDiamonds; i++ {
			b.CmpRegImm(x86.RDI, int32(i))
			b.Jcc(x86.CondNE, fmt.Sprintf("taken_%d", i))
			b.JmpLabel(fmt.Sprintf("join_%d", i))
			b.Label(fmt.Sprintf("taken_%d", i))
			b.Push(x86.RBX)
			b.Label(fmt.Sprintf("join_%d", i))
		}
		b.MovRegImm32(x86.RAX, 39)
		b.Syscall()
		b.Ret()
	})
	start, _ := g.BlockAt(syms["_start"])
	m := NewMachine(g, &Budget{MaxSteps: 1 << 62, MaxForks: 1 << 62, MaxVisits: 3})
	return m, start, g.SyscallBlocks()[0], allBlocks(g)
}

// TestRunToSiteAllocFree: once a warm-up run has filled the pools, a
// run through the 4,096 paths of the ladder allocates nothing. A fork
// copies registers only; the stack writes it undoes live in the one
// state's log.
func TestRunToSiteAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items on purpose")
	}
	m, start, site, all := ladder(t)
	sites := 0
	run := func() {
		sites = 0
		res := m.RunToSite(start, m.NewState(), all, site, func(*State) { sites++ })
		if res.HitBudget || sites != 1<<ladderDiamonds {
			t.Fatalf("%d site states, budget hit %v", sites, res.HitBudget)
		}
	}
	run() // warm-up
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("a ladder run allocates %v objects", n)
	}
}

// BenchmarkRunToSiteLadder times one run through the ladder's 4,096
// paths.
func BenchmarkRunToSiteLadder(b *testing.B) {
	m, start, site, all := ladder(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RunToSite(start, m.NewState(), all, site, func(*State) {})
	}
}
