package cfg

import (
	"fmt"
	"strings"
	"testing"

	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/x86"
)

// assemble builds an image from fn and parses it back. Every label is
// a symbol, or with keep only the labels it names.
func assemble(t *testing.T, kind elff.Kind, fn func(b *asm.Builder), keep ...string) (*elff.Binary, map[string]uint64) {
	t.Helper()
	b := asm.New()
	fn(b)
	b.Label("__code_end")
	img, syms, err := b.Finalize(0x400000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	symbols := syms
	if len(keep) > 0 {
		symbols = make(map[string]uint64)
		for _, name := range keep {
			symbols[name] = syms[name]
		}
	}
	spec := elff.Spec{
		Kind:     kind,
		Base:     0x400000,
		Entry:    syms["_start"],
		Blob:     img,
		CodeSize: syms["__code_end"] - 0x400000,
		Symbols:  symbols,
	}
	if kind == elff.KindShared {
		spec.Entry = 0
	}
	data, err := elff.Write(spec)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	bin, err := elff.Read(data)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return bin, syms
}

func TestRecoverLinearAndBranches(t *testing.T) {
	bin, syms := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RCX, 3)
		b.Label("loop")
		b.DecReg(x86.RCX)
		b.CmpRegImm(x86.RCX, 0)
		b.Jcc(x86.CondNE, "loop")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Label("after")
		b.Ret()
	})
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if _, ok := g.BlockAt(syms["loop"]); !ok {
		t.Fatal("loop head must be a block leader")
	}
	sys := g.SyscallBlocks()
	if len(sys) != 1 {
		t.Fatalf("want 1 syscall block, got %d", len(sys))
	}
	if !g.EndsInSyscall(sys[0]) {
		t.Fatal("syscall must end its block")
	}
	// The loop block must have two predecessrs: entry fall-through and
	// the backward jump.
	loop, _ := g.BlockAt(syms["loop"])
	if len(g.Preds(loop)) != 2 {
		t.Fatalf("loop preds = %d", len(g.Preds(loop)))
	}
	// Syscall block falls through to the after block.
	found := false
	for _, e := range g.Succs(sys[0]) {
		if e.Kind == EdgeFall && g.Block(e.To).Addr == syms["after"] {
			found = true
		}
	}
	if !found {
		t.Fatal("missing syscall fall-through edge")
	}
}

func TestRecoverCallEdges(t *testing.T) {
	bin, syms := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("fn")
		b.Label("retsite")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("fn")
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.Ret()
	})
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := g.BlockAt(syms["_start"])
	var haveCall, haveFall bool
	for _, e := range g.Succs(entry) {
		switch e.Kind {
		case EdgeCall:
			haveCall = g.Block(e.To).Addr == syms["fn"]
		case EdgeCallFall:
			haveFall = g.Block(e.To).Addr == syms["retsite"]
		}
	}
	if !haveCall || !haveFall {
		t.Fatalf("call edges: call=%v fall=%v", haveCall, haveFall)
	}
	// Function inference: fn must be its own function.
	f, ok := g.FuncByEntry(syms["fn"])
	if !ok || f.Name != "fn" {
		t.Fatalf("fn function: %+v ok=%v", f, ok)
	}
	// Its blocks: the syscall ends the first, the ret is the second.
	if blocks := g.FuncBlocks(f); len(blocks) != 2 || blocks[0].Addr != syms["fn"] {
		t.Fatalf("fn's blocks: %+v", blocks)
	}
}

// TestCallTargetsStartFunctions: a direct call's target starts a
// function even when no symbol names it.
func TestCallTargetsStartFunctions(t *testing.T) {
	bin, syms := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("anon")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Label("anon")
		b.MovRegImm32(x86.RAX, 39)
		b.Syscall()
		b.Ret()
	}, "_start")
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := g.FuncByEntry(syms["anon"]); !ok || f.Name != "" {
		t.Fatalf("functions %+v, want an unnamed one at %#x", g.Funcs, syms["anon"])
	}
}

// TestFixpointFallThroughOutOfOrder: the fixpoint takes the next arena
// slot as an instruction's fall-through only when that slot starts
// where the instruction ends. Here skip's nop falls through to tail,
// decoded before it, and the slot after the nop holds the region the
// lea in tail activated. Stepping into that region would visit its
// lea and activate dead, which no path reaches.
func TestFixpointFallThroughOutOfOrder(t *testing.T) {
	bin, syms := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("skip")
		b.JmpLabel("tail")
		b.Label("skip")
		b.Raw(0x90) // nop
		b.Label("tail")
		b.Lea(x86.RAX, "handler")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Label("handler")
		b.Lea(x86.RCX, "dead")
		b.Ret()
		b.Label("dead")
		b.Ret()
	}, "_start")
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ActiveAddrTaken) != 1 || g.ActiveAddrTaken[0] != syms["handler"] {
		t.Fatalf("active addr taken %#x, want only handler at %#x", g.ActiveAddrTaken, syms["handler"])
	}
}

func TestActiveAddressTaken(t *testing.T) {
	// Entry leas fptr1 and calls it indirectly. fptr2 is lea'd only from
	// dead (unreachable) code, so it must not become an indirect target:
	// the "active" refinement distinguishes it from the plain
	// address-taken set.
	bin, syms := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.Lea(x86.RAX, "fptr1")
		b.CallReg(x86.RAX)
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("dead")
		b.Lea(x86.RBX, "fptr2")
		b.Ret()
		b.Func("fptr1")
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.Ret()
		b.Func("fptr2")
		b.MovRegImm32(x86.RAX, 2)
		b.Syscall()
		b.Ret()
	})
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ActiveAddrTaken) != 1 || g.ActiveAddrTaken[0] != syms["fptr1"] {
		t.Fatalf("active addr taken: %#x", g.ActiveAddrTaken)
	}
	// fptr2 stays out although its lea was decoded: "dead" is in the
	// symbol table, so its block is decoded from the symbol root.
	if _, ok := g.BlockAt(syms["dead"]); !ok {
		t.Fatal("dead's block was not decoded from its symbol")
	}
	var itargets []uint64
	blocks := g.Blocks()
	for i := range blocks {
		for _, e := range g.Succs(&blocks[i]) {
			if e.Kind == EdgeIndirectCall {
				itargets = append(itargets, g.Block(e.To).Addr)
			}
		}
	}
	if len(itargets) != 1 || itargets[0] != syms["fptr1"] {
		t.Fatalf("indirect targets: %#x", itargets)
	}
}

func TestImportStubResolution(t *testing.T) {
	b := asm.New()
	b.Func("_start")
	b.CallLabel("stub_write")
	b.MovRegImm32(x86.RAX, 60)
	b.Syscall()
	b.Ret()
	b.Func("stub_write")
	b.JmpMemRIP("got_write")
	b.Label("__code_end")
	b.Align(8)
	b.Label("got_write")
	b.Quad(0)
	img, syms, err := b.Finalize(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	data, err := elff.Write(elff.Spec{
		Kind: elff.KindDynamic, Base: 0x400000, Entry: syms["_start"], Blob: img,
		CodeSize: syms["__code_end"] - 0x400000,
		Imports:  []elff.Import{{Name: "write", SlotAddr: syms["got_write"]}},
		Needed:   []string{"libc.so"},
		Symbols:  syms,
	})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elff.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stub, _ := g.BlockAt(syms["stub_write"])
	if name := g.ImportCall(stub); name != "write" {
		t.Fatalf("stub block import: %q", name)
	}
	if len(g.Succs(stub)) != 0 {
		t.Fatal("import stub must have no local successors")
	}
}

func TestBudgetExceeded(t *testing.T) {
	bin, _ := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < 100; i++ {
			b.Nop()
		}
		b.Ret()
	})
	_, err := Recover(bin, Options{MaxInsns: 10})
	if err != ErrBudget {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestFanOutCountsAgainstBudget: every indirect site fans out to every
// active address-taken block, so k `lea rax, fI; call rax` pairs wire
// k×k edges from about 3k instructions. Those edges count against
// MaxInsns with the decoded instructions, and one past the budget is
// ErrBudget.
func TestFanOutCountsAgainstBudget(t *testing.T) {
	const k = 40
	bin, _ := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < k; i++ {
			b.Lea(x86.RAX, fmt.Sprintf("f%d", i))
			b.CallReg(x86.RAX)
		}
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		for i := 0; i < k; i++ {
			b.Label(fmt.Sprintf("f%d", i))
			b.Ret()
		}
	}, "_start")
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ActiveAddrTaken) != k || g.Stats.NumEdges < k*k {
		t.Fatalf("%d active targets and %d edges, want %d and at least %d", len(g.ActiveAddrTaken), g.Stats.NumEdges, k, k*k)
	}
	need := g.Stats.DecodedInsns + k*k
	if _, err := Recover(bin, Options{MaxInsns: need}); err != nil {
		t.Fatalf("budget %d (decoded + fan-out): %v", need, err)
	}
	if _, err := Recover(bin, Options{MaxInsns: need - 1}); err != ErrBudget {
		t.Fatalf("budget %d: want ErrBudget, got %v", need-1, err)
	}
}

func TestListing(t *testing.T) {
	bin, _ := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
	})
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := g.Listing()
	for _, want := range []string{"_start:", "syscall", "[syscall site]", "block"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestReachability(t *testing.T) {
	bin, syms := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("used")
		b.Ret()
		b.Func("used")
		b.Ret()
		b.Func("unused")
		b.Ret()
	})
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reach := g.ReachableSet(bin.Entry)
	if used, _ := g.BlockAt(syms["used"]); !reach.Has(used.ID) {
		t.Fatal("used must be reachable")
	}
	if unused, ok := g.BlockAt(syms["unused"]); ok && reach.Has(unused.ID) {
		t.Fatal("unused must not be reachable from entry")
	}
}
