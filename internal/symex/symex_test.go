package symex

import (
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// recoverGraph builds a binary and its CFG.
func recoverGraph(t testing.TB, fn func(b *asm.Builder)) (*cfg.Graph, map[string]uint64) {
	t.Helper()
	bin, syms := testbin.Build(t, elff.KindStatic, fn, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return g, syms
}

// allBlocks returns the full block set as an allowed set.
func allBlocks(g *cfg.Graph) *cfg.BlockSet {
	s := cfg.NewBlockSet(g.NumBlocks())
	for id := 0; id < g.NumBlocks(); id++ {
		s.Add(cfg.BlockID(id))
	}
	return s
}

// siteRegs runs m from start toward site and returns the registers of
// each state that reached it, in the order the paths arrived.
func siteRegs(m *Machine, start *cfg.Block, init *State, allowed *cfg.BlockSet, site *cfg.Block) ([][x86.NumGPR]Value, Result) {
	var regs [][x86.NumGPR]Value
	res := m.RunToSite(start, init, allowed, site, func(st *State) { regs = append(regs, st.Regs) })
	return regs, res
}

// raxAtSite runs from start to the site and collects rax values.
func raxAtSite(t *testing.T, g *cfg.Graph, start, site *cfg.Block) []Value {
	t.Helper()
	regs, res := siteRegs(NewMachine(g, NewBudget()), start, NewState(), allBlocks(g), site)
	if res.HitBudget {
		t.Fatal("unexpected budget exhaustion")
	}
	vals := make([]Value, 0, len(regs))
	for _, r := range regs {
		vals = append(vals, r[x86.RAX])
	}
	return vals
}

func TestFig1A_SameBlockImmediate(t *testing.T) {
	g, _ := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 0) // read
		b.Syscall()
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	vals := raxAtSite(t, g, site, site)
	if len(vals) != 1 {
		t.Fatalf("states: %d", len(vals))
	}
	if k, ok := vals[0].IsConst(); !ok || k != 0 {
		t.Fatalf("rax = %v", vals[0])
	}
}

func TestFig1B_ImmediateInDistantBlock(t *testing.T) {
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 2) // open, defined early
		b.MovRegImm32(x86.RCX, 5)
		b.Label("spin")
		b.DecReg(x86.RCX)
		b.CmpRegImm(x86.RCX, 0)
		b.Jcc(x86.CondNE, "spin")
		b.Syscall()
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	start, _ := g.BlockAt(syms["_start"])
	vals := raxAtSite(t, g, start, site)
	if len(vals) == 0 {
		t.Fatal("no path reached the site")
	}
	for _, v := range vals {
		if k, ok := v.IsConst(); !ok || k != 2 {
			t.Fatalf("rax = %v", v)
		}
	}
}

func TestFig1C_ImmediateThroughStackMemory(t *testing.T) {
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.SubRegImm(x86.RSP, 16)
		b.MovMemImm32(x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1}, 1) // write
		b.Nop()
		b.MovRegMem(x86.RAX, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1})
		b.Syscall()
		b.AddRegImm(x86.RSP, 16)
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	start, _ := g.BlockAt(syms["_start"])
	vals := raxAtSite(t, g, start, site)
	if len(vals) == 0 {
		t.Fatal("no path reached the site")
	}
	for _, v := range vals {
		if k, ok := v.IsConst(); !ok || k != 1 {
			t.Fatalf("rax = %v (stack tracking lost the value)", v)
		}
	}
}

func TestWrapperParamRegister(t *testing.T) {
	// A libc-style wrapper: syscall(long n, ...) with the number in rdi.
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.Ret()
		b.Func("wrapper")
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	entry, _ := g.BlockAt(syms["wrapper"])
	regs, _ := siteRegs(NewMachine(g, NewBudget()), entry, NewEntryState(6), allBlocks(g), site)
	if len(regs) == 0 {
		t.Fatal("no site states")
	}
	v := regs[0][x86.RAX]
	if p, _ := v.Param(); v.Kind != KParam || p != (ParamRef{Reg: x86.RDI}) {
		t.Fatalf("rax = %v, want arg:rdi", v)
	}
}

// TestNarrowReadsCarryParamTaint: a syscall number built from part of
// a parameter register stays tainted by that parameter, so wrapper
// detection still sees where it comes from. CH and DL are parts of the
// argument registers RCX and RDX.
func TestNarrowReadsCarryParamTaint(t *testing.T) {
	for _, c := range []struct {
		name string
		code []byte
		want x86.Reg
	}{
		{"movzx eax, cl", []byte{0x0F, 0xB6, 0xC1}, x86.RCX},
		{"movsx eax, ch", []byte{0x0F, 0xBE, 0xC5}, x86.RCX},
		{"mov ah, dl", []byte{0x88, 0xD4}, x86.RDX},
	} {
		g, syms := recoverGraph(t, func(b *asm.Builder) {
			b.Func("_start")
			b.Ret()
			b.Func("wrapper")
			b.MovRegImm32(x86.RAX, 0x27)
			b.Raw(c.code...)
			b.Syscall()
			b.Ret()
		})
		entry, _ := g.BlockAt(syms["wrapper"])
		regs, _ := siteRegs(NewMachine(g, NewBudget()), entry, NewEntryState(0), allBlocks(g), g.SyscallBlocks()[0])
		if len(regs) != 1 {
			t.Fatalf("%s: %d site states", c.name, len(regs))
		}
		v := regs[0][x86.RAX]
		if p, ok := v.Param(); v.Kind != KUnknown || !ok || p != (ParamRef{Reg: c.want}) {
			t.Errorf("%s: rax = %v, want an unknown tainted by arg:%v", c.name, v, c.want)
		}
	}
}

func TestWrapperParamStackSlot(t *testing.T) {
	// A Go-style wrapper taking the syscall number on the stack.
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.Ret()
		b.Func("wrapper")
		b.MovRegMem(x86.RAX, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 8})
		b.Syscall()
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	entry, _ := g.BlockAt(syms["wrapper"])
	regs, _ := siteRegs(NewMachine(g, NewBudget()), entry, NewEntryState(6), allBlocks(g), site)
	if len(regs) == 0 {
		t.Fatal("no site states")
	}
	v := regs[0][x86.RAX]
	if p, _ := v.Param(); v.Kind != KParam || p != (ParamRef{Stack: true, Off: 8}) {
		t.Fatalf("rax = %v, want arg[rsp+8]", v)
	}
}

func TestSkipCallHavoc(t *testing.T) {
	// The syscall number is parked in rbx (callee-saved) across a call
	// to a popular function (Fig 2A): the skipped call must not destroy
	// it, while rax (caller-saved) must be havocked.
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RBX, 3) // close
		b.MovRegImm32(x86.RAX, 99)
		b.CallLabel("memcpyish")
		b.MovRegReg(x86.RAX, x86.RBX)
		b.Syscall()
		b.Ret()
		b.Func("memcpyish")
		b.MovRegImm32(x86.RAX, 1234)
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	start, _ := g.BlockAt(syms["_start"])
	// Direct the search so the callee is OUTSIDE the allowed set: the
	// call must be skipped, not followed.
	callee, _ := g.BlockAt(syms["memcpyish"])
	allowed := cfg.NewBlockSet(g.NumBlocks())
	for id := 0; id < g.NumBlocks(); id++ {
		if cfg.BlockID(id) != callee.ID {
			allowed.Add(cfg.BlockID(id))
		}
	}

	regs, _ := siteRegs(NewMachine(g, NewBudget()), start, NewState(), allowed, site)
	if len(regs) == 0 {
		t.Fatal("no site states")
	}
	v := regs[0][x86.RAX]
	if k, ok := v.IsConst(); !ok || k != 3 {
		t.Fatalf("rax = %v, want 3 preserved via rbx", v)
	}
}

func TestCallStepInWhenAllowed(t *testing.T) {
	// When the callee is in the directed set (it contains the site), the
	// executor must follow the call.
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RDI, 42)
		b.CallLabel("fn")
		b.Ret()
		b.Func("fn")
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	start, _ := g.BlockAt(syms["_start"])
	vals := raxAtSite(t, g, start, site)
	if len(vals) == 0 {
		t.Fatal("call not followed")
	}
	if k, ok := vals[0].IsConst(); !ok || k != 42 {
		t.Fatalf("rax = %v", vals[0])
	}
}

func TestReturnFlowAfterCall(t *testing.T) {
	// Value set inside a callee, returned, then used at a later site:
	// exercises concrete return-address push/pop.
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("pick")
		b.Syscall()
		b.Ret()
		b.Func("pick")
		b.MovRegImm32(x86.RAX, 7)
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	start, _ := g.BlockAt(syms["_start"])
	vals := raxAtSite(t, g, start, site)
	if len(vals) == 0 {
		t.Fatal("no site states")
	}
	if k, ok := vals[0].IsConst(); !ok || k != 7 {
		t.Fatalf("rax = %v", vals[0])
	}
}

func TestIndirectCallForksIntoTargets(t *testing.T) {
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.Lea(x86.RDX, "handler")
		b.CallReg(x86.RDX)
		b.Ret()
		b.Func("handler")
		b.MovRegImm32(x86.RAX, 41)
		b.Syscall()
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	start, _ := g.BlockAt(syms["_start"])
	vals := raxAtSite(t, g, start, site)
	if len(vals) == 0 {
		t.Fatal("indirect call target not explored")
	}
	if k, ok := vals[0].IsConst(); !ok || k != 41 {
		t.Fatalf("rax = %v", vals[0])
	}
}

func TestParamValueAtCall(t *testing.T) {
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.SubRegImm(x86.RSP, 16)
		b.MovMemImm32(x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1}, 39) // getpid via stack arg
		b.MovRegImm32(x86.RDI, 57)                                              // fork via reg arg
		b.CallLabel("wrapper")
		b.AddRegImm(x86.RSP, 16)
		b.Ret()
		b.Func("wrapper")
		b.Ret()
	})
	// The site is the call block.
	var site *cfg.Block
	blocks := g.Blocks()
	for i := range blocks {
		if g.Last(&blocks[i]).Op == x86.OpCall {
			site = &blocks[i]
		}
	}
	if site == nil {
		t.Fatal("no call block")
	}
	start, _ := g.BlockAt(syms["_start"])
	var params [][2]Value // the register and the stack parameter, per site state
	NewMachine(g, NewBudget()).RunToSite(start, NewState(), allBlocks(g), site, func(st *State) {
		params = append(params, [2]Value{
			ParamValueAtCall(st, ParamRef{Reg: x86.RDI}),
			ParamValueAtCall(st, ParamRef{Stack: true, Off: 8}),
		})
	})
	if len(params) == 0 {
		t.Fatal("no site states")
	}
	if v := params[0][0]; mustConst(t, v) != 57 {
		t.Fatalf("reg param = %v", v)
	}
	if v := params[0][1]; mustConst(t, v) != 39 {
		t.Fatalf("stack param = %v", v)
	}
}

func mustConst(t *testing.T, v Value) uint64 {
	t.Helper()
	k, ok := v.IsConst()
	if !ok {
		t.Fatalf("value %v not constant", v)
	}
	return k
}

func TestBudgetStopsLoops(t *testing.T) {
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.Label("forever")
		b.IncReg(x86.RCX)
		b.JmpLabel("forever")
	})
	start, _ := g.BlockAt(syms["_start"])
	m := NewMachine(g, &Budget{MaxSteps: 100, MaxForks: 10, MaxVisits: 1000})
	res := m.RunToSite(start, NewState(), allBlocks(g), nil, nil)
	if !res.HitBudget {
		t.Fatal("budget must stop an infinite loop")
	}
}

func TestZeroingIdiomAndTruncation(t *testing.T) {
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm64(x86.RAX, 0xFFFFFFFF_00000001)
		b.XorRegReg32(x86.RDI, x86.RDI) // xor edi, edi
		b.MovRegImm32(x86.RAX, 0xFFFFFFFF)
		b.Syscall()
		b.Ret()
	})
	site := g.SyscallBlocks()[0]
	start, _ := g.BlockAt(syms["_start"])
	regs, _ := siteRegs(NewMachine(g, NewBudget()), start, NewState(), allBlocks(g), site)
	if len(regs) == 0 {
		t.Fatal("no site states")
	}
	if k := mustConst(t, regs[0][x86.RDI]); k != 0 {
		t.Fatalf("rdi = %#x", k)
	}
	if k := mustConst(t, regs[0][x86.RAX]); k != 0xFFFFFFFF {
		t.Fatalf("rax = %#x (32-bit mov must zero-extend)", k)
	}
}

func TestValueHelpers(t *testing.T) {
	if Const(5).String() != "0x5" {
		t.Error("const string")
	}
	if StackPtr(-8).String() != "stack-8" {
		t.Errorf("stack string: %s", StackPtr(-8).String())
	}
	p := Param(ParamRef{Reg: x86.RDI})
	if p.String() != "arg:rdi" {
		t.Errorf("param string: %s", p.String())
	}
	u := taintedUnknown2(p, Param(ParamRef{Stack: true, Off: 16}))
	if len(u.AllTaint()) != 2 {
		t.Errorf("taint: %v", u.AllTaint())
	}
	// Dedup.
	u2 := taintedUnknown2(taintedUnknown2(p, p), u)
	if len(u2.AllTaint()) != 2 {
		t.Errorf("dedup taint: %v", u2.AllTaint())
	}
	if v := truncate(Const(0x1FF), 1); mustConst(t, v) != 0xFF {
		t.Errorf("truncate byte: %v", v)
	}
}
