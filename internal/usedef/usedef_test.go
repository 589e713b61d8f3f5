package usedef

import (
	"reflect"
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// setup builds a program and returns its graph and the function named
// "fn" with its syscall block.
func setup(t *testing.T, build func(b *asm.Builder)) (*cfg.Graph, *cfg.Func, *cfg.Block) {
	t.Helper()
	bin, syms := testbin.Build(t, elff.KindStatic, build, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	fn, ok := g.FuncByEntry(syms["fn"])
	if !ok {
		t.Fatal("no fn function")
	}
	blocks := g.FuncBlocks(fn)
	for i := range blocks {
		if g.EndsInSyscall(&blocks[i]) {
			return g, fn, &blocks[i]
		}
	}
	t.Fatal("no syscall block in fn")
	return nil, nil, nil
}

func resolveRAX(t *testing.T, g *cfg.Graph, fn *cfg.Func, site *cfg.Block) ([]uint64, bool) {
	t.Helper()
	return Resolve(Request{Graph: g, Fn: fn, Block: site, InsnIdx: len(g.Insns(site)) - 1, Reg: x86.RAX})
}

func TestResolveImmediate(t *testing.T) {
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.MovRegImm32(x86.RAX, 39)
		b.Syscall()
		b.Ret()
	})
	vals, ok := resolveRAX(t, g, fn, site)
	if !ok || !reflect.DeepEqual(vals, []uint64{39}) {
		t.Fatalf("vals=%v ok=%v", vals, ok)
	}
}

func TestResolveThroughRegisterCopyAndBranches(t *testing.T) {
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.MovRegImm32(x86.RBX, 2)
		b.CmpRegImm(x86.RDI, 0)
		b.Jcc(x86.CondE, "use")
		b.MovRegImm32(x86.RBX, 3)
		b.Label("use")
		b.MovRegReg(x86.RAX, x86.RBX)
		b.Syscall()
		b.Ret()
	})
	vals, ok := resolveRAX(t, g, fn, site)
	if !ok || !reflect.DeepEqual(vals, []uint64{2, 3}) {
		t.Fatalf("vals=%v ok=%v", vals, ok)
	}
}

func TestResolveZeroingIdiomAndArith(t *testing.T) {
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.XorRegReg32(x86.RAX, x86.RAX)
		b.AddRegImm(x86.RAX, 9)
		b.IncReg(x86.RAX)
		b.Syscall()
		b.Ret()
	})
	vals, ok := resolveRAX(t, g, fn, site)
	if !ok || !reflect.DeepEqual(vals, []uint64{10}) {
		t.Fatalf("vals=%v ok=%v", vals, ok)
	}
}

func TestMemoryOperandFails(t *testing.T) {
	// The defining move loads from the stack: out of domain — exactly
	// the SysFilter blind spot the paper describes.
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.MovRegMem(x86.RAX, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 8})
		b.Syscall()
		b.Ret()
	})
	if vals, ok := resolveRAX(t, g, fn, site); ok {
		t.Fatalf("memory operand must fail, got %v", vals)
	}
}

func TestValueFromCallerFails(t *testing.T) {
	// Wrapper shape: rax := rdi, rdi set by the caller. Phase-1 must
	// say "maybe wrapper" (not resolvable).
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RDI, 1)
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	})
	if vals, ok := resolveRAX(t, g, fn, site); ok {
		t.Fatalf("caller-provided value must fail, got %v", vals)
	}
}

func TestCallClobberFails(t *testing.T) {
	// A call between the definition and the use clobbers caller-saved
	// rax.
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("helper")
		b.Ret()
		b.Func("fn")
		b.MovRegImm32(x86.RAX, 5)
		b.CallLabel("helper")
		b.Syscall()
		b.Ret()
	})
	if vals, ok := resolveRAX(t, g, fn, site); ok {
		t.Fatalf("call clobber must fail, got %v", vals)
	}
}

func TestCalleeSavedSurvivesCall(t *testing.T) {
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("helper")
		b.Ret()
		b.Func("fn")
		b.MovRegImm32(x86.RBX, 7)
		b.CallLabel("helper")
		b.MovRegReg(x86.RAX, x86.RBX)
		b.Syscall()
		b.Ret()
	})
	vals, ok := resolveRAX(t, g, fn, site)
	if !ok || !reflect.DeepEqual(vals, []uint64{7}) {
		t.Fatalf("vals=%v ok=%v", vals, ok)
	}
}

func TestLoopBackEdgeTerminates(t *testing.T) {
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.MovRegImm32(x86.RAX, 4)
		b.Label("top")
		b.DecReg(x86.RCX)
		b.CmpRegImm(x86.RCX, 0)
		b.Jcc(x86.CondNE, "top")
		b.Syscall()
		b.Ret()
	})
	vals, ok := resolveRAX(t, g, fn, site)
	if !ok || !reflect.DeepEqual(vals, []uint64{4}) {
		t.Fatalf("vals=%v ok=%v", vals, ok)
	}
}

func TestLeaveClobbersRBP(t *testing.T) {
	// leave reloads RBP from the stack: the 5 before it never reaches
	// the syscall.
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.MovRegImm32(x86.RBP, 5)
		b.Leave()
		b.Raw(0x89, 0xE8) // mov eax, ebp
		b.Syscall()
		b.Ret()
	})
	if vals, ok := resolveRAX(t, g, fn, site); ok {
		t.Fatalf("a value across leave must fail, got %v", vals)
	}
}

func TestThirtyTwoBitArithWraps(t *testing.T) {
	// A 4-byte add wraps and zero-extends, as the hardware computes it.
	g, fn, site := setup(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.MovRegImm32(x86.RAX, 0xffffffff)
		b.Raw(0x83, 0xC0, 0x3d) // add eax, 0x3d
		b.Syscall()
		b.Ret()
	})
	vals, ok := resolveRAX(t, g, fn, site)
	if !ok || !reflect.DeepEqual(vals, []uint64{0x3c}) {
		t.Fatalf("vals=%#x ok=%v, want [0x3c]", vals, ok)
	}
}
