package symex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/emu"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// TestPropertySymexAgreesWithEmulator cross-validates the two execution
// engines: for randomly generated straight-line programs with fully
// concrete data flow, the symbolic executor's %rax at the syscall site
// must be a constant equal to what the concrete emulator observes.
func TestPropertySymexAgreesWithEmulator(t *testing.T) {
	regs := []x86.Reg{x86.RAX, x86.RBX, x86.RCX, x86.RDI, x86.RSI, x86.R8, x86.R12}

	gen := func(seed int64) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			rng := rand.New(rand.NewSource(seed))
			b.Func("_start")
			b.SubRegImm(x86.RSP, 64)
			// Concrete initial values.
			for _, r := range regs {
				b.MovRegImm32(r, uint32(rng.Intn(1<<16)))
			}
			n := 5 + rng.Intn(25)
			for i := 0; i < n; i++ {
				dst := regs[rng.Intn(len(regs))]
				src := regs[rng.Intn(len(regs))]
				switch rng.Intn(12) {
				case 0:
					b.MovRegImm32(dst, uint32(rng.Intn(1<<20)))
				case 1:
					b.MovRegReg(dst, src)
				case 2:
					b.AddRegReg(dst, src)
				case 3:
					b.SubRegReg(dst, src)
				case 4:
					b.XorRegReg(dst, src)
				case 5:
					b.AndRegImm(dst, int32(rng.Intn(1<<20)))
				case 6:
					b.OrRegImm(dst, int32(rng.Intn(1<<20)))
				case 7:
					b.ShlRegImm(dst, uint8(rng.Intn(8)))
				case 8:
					b.ShrRegImm(dst, uint8(rng.Intn(8)))
				case 9:
					b.IncReg(dst)
				case 10:
					// Round-trip through stack memory.
					b.MovMemReg(x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 16}, src)
					b.MovRegMem(dst, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 16})
				case 11:
					b.Push(src)
					b.Pop(dst)
				}
			}
			b.Syscall() // observation point: rax
			b.MovRegImm32(x86.RAX, 60)
			b.Syscall()
		}
	}

	f := func(seed int64) bool {
		build := gen(seed)
		bin, _ := testbin.Build(t, elff.KindStatic, build, nil)

		// Concrete run.
		m, err := emu.NewProcess(bin, nil)
		if err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		if err := m.Run(100_000); err != nil {
			t.Logf("seed %d: emu: %v", seed, err)
			return false
		}
		if len(m.Trace) < 1 {
			t.Logf("seed %d: no syscall observed", seed)
			return false
		}
		concrete := m.Trace[0]

		// Symbolic run to the first syscall site.
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			t.Logf("seed %d: cfg: %v", seed, err)
			return false
		}
		sites := g.SyscallBlocks()
		if len(sites) < 1 {
			return false
		}
		allowed := cfg.NewBlockSet(g.NumBlocks())
		for id := 0; id < g.NumBlocks(); id++ {
			allowed.Add(cfg.BlockID(id))
		}
		start, _ := g.BlockAt(bin.Entry)
		regs, _ := siteRegs(NewMachine(g, NewBudget()), start, NewState(), allowed, sites[0])
		if len(regs) != 1 {
			t.Logf("seed %d: %d site states", seed, len(regs))
			return false
		}
		v := regs[0][x86.RAX]
		k, ok := v.IsConst()
		if !ok {
			t.Logf("seed %d: symbolic rax %v, want constant", seed, v)
			return false
		}
		if k != concrete {
			t.Logf("seed %d: symex %#x != emulator %#x", seed, k, concrete)
			return false
		}
		return true
	}
	conf := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, conf); err != nil {
		t.Fatal(err)
	}
}
