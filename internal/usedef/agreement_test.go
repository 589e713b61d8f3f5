package usedef

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

// TestPropertyUsedefAgreesWithExecution cross-validates the use-define
// chain analysis against concrete execution: on register-only
// straight-line programs, when Resolve succeeds its value set must
// contain the concretely observed %rax.
func TestPropertyUsedefAgreesWithExecution(t *testing.T) {
	regs := []x86.Reg{x86.RAX, x86.RBX, x86.RCX, x86.RDX, x86.RSI, x86.R10, x86.R14}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
			b.Func("_start")
			for _, r := range regs {
				b.MovRegImm32(r, uint32(rng.Intn(1<<12)))
			}
			n := 3 + rng.Intn(15)
			for i := 0; i < n; i++ {
				dst := regs[rng.Intn(len(regs))]
				src := regs[rng.Intn(len(regs))]
				switch rng.Intn(7) {
				case 0:
					b.MovRegImm32(dst, uint32(rng.Intn(1<<12)))
				case 1:
					b.MovRegReg(dst, src)
				case 2:
					b.AddRegImm(dst, int32(rng.Intn(128)))
				case 3:
					b.SubRegImm(dst, int32(rng.Intn(128)))
				case 4:
					b.AndRegImm(dst, int32(rng.Intn(1<<12)))
				case 5:
					b.IncReg(dst)
				case 6:
					b.XorRegReg(dst, dst)
				}
			}
			b.Syscall()
			b.MovRegImm32(x86.RAX, 60)
			b.Syscall()
		}, nil)

		m, err := emu.NewProcess(bin, nil)
		if err != nil || m.Run(100_000) != nil || len(m.Trace) == 0 {
			t.Logf("seed %d: emulation failed", seed)
			return false
		}
		concrete := m.Trace[0]

		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			return false
		}
		site := g.SyscallBlocks()[0]
		fn, ok := g.FuncContaining(site.Addr)
		if !ok {
			return false
		}
		vals, ok := Resolve(Request{
			Graph: g, Fn: fn, Block: site, InsnIdx: len(g.Insns(site)) - 1, Reg: x86.RAX,
		})
		if !ok {
			// Register-only straight-line code must always resolve.
			t.Logf("seed %d: usedef gave up", seed)
			return false
		}
		for _, v := range vals {
			if v == concrete {
				return true
			}
		}
		t.Logf("seed %d: usedef %v misses concrete %d", seed, vals, concrete)
		return false
	}
	conf := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, conf); err != nil {
		t.Fatal(err)
	}
}
