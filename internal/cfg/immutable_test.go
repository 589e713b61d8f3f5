package cfg

import (
	"sync"
	"testing"

	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/x86"
)

// TestGraphConcurrentReaders exercises the Graph immutability contract:
// after Recover, every accessor must be a pure read so the pipeline's
// worker pool can traverse one graph from many goroutines. Any future
// lazy mutation (memoizing accessors, sorting on demand) shows up here
// as a data race under -race.
func TestGraphConcurrentReaders(t *testing.T) {
	bin, syms := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 0)
		b.CallLabel("helper")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("helper")
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.Ret()
	})
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rounds := 0; rounds < 16; rounds++ {
				blocks := g.Blocks()
				for i := range blocks {
					blk := &blocks[i]
					if _, ok := g.BlockAt(blk.Addr); !ok {
						t.Error("block lost")
						return
					}
					g.Insns(blk)
					g.Succs(blk)
					g.Preds(blk)
					g.ImportCall(blk)
					g.FuncContaining(blk.Addr)
				}
				for i := range g.Funcs {
					fn := &g.Funcs[i]
					if _, ok := g.FuncByEntry(fn.Entry); !ok {
						t.Error("func lost")
						return
					}
					g.FuncBlocks(fn)
				}
				if len(g.SyscallBlocks()) != 2 {
					t.Error("syscall sites drifted")
					return
				}
				g.ReachableSet(g.Roots...)
				if g.Listing() == "" {
					t.Error("empty listing")
					return
				}
			}
		}()
	}
	wg.Wait()
	_ = syms
}
