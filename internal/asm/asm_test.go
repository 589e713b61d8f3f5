package asm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bside/internal/x86"
)

// decodeOne assembles via fn, finalizes at base 0x400000 and decodes the
// first instruction.
func decodeOne(t *testing.T, fn func(b *Builder)) x86.Inst {
	t.Helper()
	b := New()
	fn(b)
	img, _, err := b.Finalize(0x400000)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	var inst x86.Inst
	if err := x86.Decode(&inst, img, 0x400000); err != nil {
		t.Fatalf("decode %x: %v", img, err)
	}
	if int(inst.Len) != len(img) {
		t.Fatalf("decode consumed %d of %d bytes (%x)", inst.Len, len(img), img)
	}
	return inst
}

func TestRoundTripMovImm(t *testing.T) {
	inst := decodeOne(t, func(b *Builder) { b.MovRegImm32(x86.RAX, 231) })
	if inst.Op != x86.OpMov || inst.Dst.Reg != x86.RAX || inst.Src.Kind != x86.KindImm || inst.Imm != 231 {
		t.Fatalf("got %v", inst)
	}
	inst = decodeOne(t, func(b *Builder) { b.MovRegImm32(x86.R11, 0xDEADBEEF) })
	if inst.Dst.Reg != x86.R11 || uint32(inst.Imm) != 0xDEADBEEF {
		t.Fatalf("got %v", inst)
	}
	if inst.Imm != int64(uint32(0xDEADBEEF)) {
		t.Fatalf("imm32 must be zero-extended, got %#x", inst.Imm)
	}
	inst = decodeOne(t, func(b *Builder) { b.MovRegImm64(x86.R9, 0x1122334455667788) })
	if inst.Op != x86.OpMov || inst.Dst.Reg != x86.R9 || uint64(inst.Imm) != 0x1122334455667788 {
		t.Fatalf("got %v", inst)
	}
}

func TestRoundTripRegReg(t *testing.T) {
	cases := []struct {
		fn   func(b *Builder)
		op   x86.Op
		dst  x86.Reg
		src  x86.Reg
		size uint8
	}{
		{func(b *Builder) { b.MovRegReg(x86.RAX, x86.RDI) }, x86.OpMov, x86.RAX, x86.RDI, 8},
		{func(b *Builder) { b.MovRegReg(x86.R15, x86.R8) }, x86.OpMov, x86.R15, x86.R8, 8},
		{func(b *Builder) { b.XorRegReg(x86.RAX, x86.RAX) }, x86.OpXor, x86.RAX, x86.RAX, 8},
		{func(b *Builder) { b.XorRegReg32(x86.RAX, x86.RAX) }, x86.OpXor, x86.RAX, x86.RAX, 4},
		{func(b *Builder) { b.AddRegReg(x86.RBX, x86.RCX) }, x86.OpAdd, x86.RBX, x86.RCX, 8},
		{func(b *Builder) { b.SubRegReg(x86.RSP, x86.RDX) }, x86.OpSub, x86.RSP, x86.RDX, 8},
		{func(b *Builder) { b.TestRegReg(x86.RDI, x86.RDI) }, x86.OpTest, x86.RDI, x86.RDI, 8},
		{func(b *Builder) { b.CmpRegReg(x86.R12, x86.RSI) }, x86.OpCmp, x86.R12, x86.RSI, 8},
	}
	for i, tc := range cases {
		inst := decodeOne(t, tc.fn)
		if inst.Op != tc.op || inst.Dst.Reg != tc.dst || inst.Src.Reg != tc.src || inst.OpSize != tc.size {
			t.Errorf("case %d: got %v (size %d)", i, inst, inst.OpSize)
		}
	}
}

func TestRoundTripMemForms(t *testing.T) {
	mems := []x86.Mem{
		{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 8},
		{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 0},
		{Base: x86.RBP, Index: x86.RegNone, Scale: 1, Disp: -16},
		{Base: x86.RBP, Index: x86.RegNone, Scale: 1, Disp: 0},
		{Base: x86.R13, Index: x86.RegNone, Scale: 1, Disp: 0},
		{Base: x86.R12, Index: x86.RegNone, Scale: 1, Disp: 4},
		{Base: x86.RAX, Index: x86.RCX, Scale: 8, Disp: 0x40},
		{Base: x86.RBX, Index: x86.R14, Scale: 4, Disp: -300},
		{Base: x86.RegNone, Index: x86.RegNone, Scale: 1, Disp: 0x601000},
		{Base: x86.RDI, Index: x86.RegNone, Scale: 1, Disp: 999},
	}
	for _, m := range mems {
		inst := decodeOne(t, func(b *Builder) { b.MovRegMem(x86.RAX, m) })
		if inst.Op != x86.OpMov || inst.Dst.Reg != x86.RAX || inst.Src.Kind != x86.KindMem {
			t.Fatalf("mem %v: got %v", m, inst)
		}
		got := inst.Mem(inst.Src)
		if got.Base != m.Base || got.Index != m.Index || got.Disp != m.Disp {
			t.Errorf("mem %v: decoded %v", m, got)
		}
		if m.Index != x86.RegNone && got.Scale != m.Scale {
			t.Errorf("mem %v: decoded scale %d", m, got.Scale)
		}
		// Store direction.
		inst = decodeOne(t, func(b *Builder) { b.MovMemReg(m, x86.RDX) })
		if inst.Op != x86.OpMov || inst.Dst.Kind != x86.KindMem || inst.Src.Reg != x86.RDX {
			t.Errorf("store %v: got %v", m, inst)
		}
		// Immediate store.
		inst = decodeOne(t, func(b *Builder) { b.MovMemImm32(m, -42) })
		if inst.Op != x86.OpMov || inst.Dst.Kind != x86.KindMem || inst.Src.Kind != x86.KindImm || inst.Imm != -42 {
			t.Errorf("imm store %v: got %v", m, inst)
		}
	}
}

func TestRoundTripRIPRelative(t *testing.T) {
	b := New()
	b.Lea(x86.RDI, "data")
	b.MovRegMemRIP(x86.RAX, "data")
	b.CallMemRIP("slot")
	b.JmpMemRIP("slot")
	b.Label("data")
	b.Quad(0x1234)
	b.Label("slot")
	b.QuadLabel("data")
	img, syms, err := b.Finalize(0x400000)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}

	var lea, mov, call x86.Inst
	if err := x86.Decode(&lea, img, 0x400000); err != nil {
		t.Fatalf("decode lea: %v", err)
	}
	if lea.Op != x86.OpLea || lea.Dst.Reg != x86.RDI {
		t.Fatalf("lea: %v", lea)
	}
	ea, ok := lea.MemEA(lea.Src)
	if !ok || ea != syms["data"] {
		t.Fatalf("lea EA %#x want %#x", ea, syms["data"])
	}

	if err := x86.Decode(&mov, img[lea.Len:], 0x400000+uint64(lea.Len)); err != nil {
		t.Fatalf("decode mov: %v", err)
	}
	if ea, ok := mov.MemEA(mov.Src); !ok || ea != syms["data"] {
		t.Fatalf("mov EA %#x want %#x", ea, syms["data"])
	}

	if err := x86.Decode(&call, img[lea.Len+mov.Len:], 0x400000+uint64(lea.Len)+uint64(mov.Len)); err != nil {
		t.Fatalf("decode call: %v", err)
	}
	if call.Op != x86.OpCallInd {
		t.Fatalf("call: %v", call)
	}
	if ea, ok := call.MemEA(call.Dst); !ok || ea != syms["slot"] {
		t.Fatalf("call EA %#x want %#x", ea, syms["slot"])
	}
}

func TestRoundTripBranches(t *testing.T) {
	b := New()
	b.Label("top")
	b.CmpRegImm(x86.RCX, 10)
	b.Jcc(x86.CondL, "top")
	b.CallLabel("fn")
	b.JmpLabel("end")
	b.Label("fn")
	b.Ret()
	b.Label("end")
	b.Syscall()
	img, syms, err := b.Finalize(0x1000)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	var insts []x86.Inst
	for off := 0; off < len(img); {
		var inst x86.Inst
		if err := x86.Decode(&inst, img[off:], 0x1000+uint64(off)); err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		insts = append(insts, inst)
		off += int(inst.Len)
	}
	if insts[1].Op != x86.OpJcc || insts[1].Cond != x86.CondL {
		t.Fatalf("jcc: %v", insts[1])
	}
	if tgt, _ := insts[1].BranchTarget(); tgt != syms["top"] {
		t.Fatalf("jcc target %#x want %#x", tgt, syms["top"])
	}
	if tgt, _ := insts[2].BranchTarget(); tgt != syms["fn"] {
		t.Fatalf("call target %#x want %#x", tgt, syms["fn"])
	}
	if tgt, _ := insts[3].BranchTarget(); tgt != syms["end"] {
		t.Fatalf("jmp target %#x want %#x", tgt, syms["end"])
	}
	last := insts[len(insts)-1]
	if last.Op != x86.OpSyscall {
		t.Fatalf("last: %v", last)
	}
}

func TestRoundTripStackAndALU(t *testing.T) {
	ops := []struct {
		fn func(b *Builder)
		op x86.Op
	}{
		{func(b *Builder) { b.Push(x86.RBP) }, x86.OpPush},
		{func(b *Builder) { b.Push(x86.R15) }, x86.OpPush},
		{func(b *Builder) { b.Pop(x86.RBP) }, x86.OpPop},
		{func(b *Builder) { b.PushImm32(512) }, x86.OpPush},
		{func(b *Builder) { b.AddRegImm(x86.RSP, 32) }, x86.OpAdd},
		{func(b *Builder) { b.SubRegImm(x86.RSP, 1000) }, x86.OpSub},
		{func(b *Builder) { b.CmpRegImm(x86.RAX, 3) }, x86.OpCmp},
		{func(b *Builder) { b.AndRegImm(x86.RDX, 0xFF) }, x86.OpAnd},
		{func(b *Builder) { b.OrRegImm(x86.RDX, 0x10) }, x86.OpOr},
		{func(b *Builder) { b.ShlRegImm(x86.RAX, 3) }, x86.OpShl},
		{func(b *Builder) { b.ShrRegImm(x86.RAX, 1) }, x86.OpShr},
		{func(b *Builder) { b.IncReg(x86.RCX) }, x86.OpInc},
		{func(b *Builder) { b.DecReg(x86.RCX) }, x86.OpDec},
		{func(b *Builder) { b.Ret() }, x86.OpRet},
		{func(b *Builder) { b.Leave() }, x86.OpLeave},
		{func(b *Builder) { b.Nop() }, x86.OpNop},
		{func(b *Builder) { b.Endbr64() }, x86.OpEndbr64},
		{func(b *Builder) { b.Ud2() }, x86.OpUd2},
		{func(b *Builder) { b.Int3() }, x86.OpInt3},
		{func(b *Builder) { b.Hlt() }, x86.OpHlt},
		{func(b *Builder) { b.Syscall() }, x86.OpSyscall},
		{func(b *Builder) { b.CallReg(x86.RAX) }, x86.OpCallInd},
		{func(b *Builder) { b.JmpReg(x86.R10) }, x86.OpJmpInd},
	}
	for i, tc := range ops {
		inst := decodeOne(t, tc.fn)
		if inst.Op != tc.op {
			t.Errorf("case %d: want %v got %v", i, tc.op, inst)
		}
	}
}

// TestQuickMemRoundTrip drives random addressing forms through the
// encoder and decoder and checks they agree.
func TestQuickMemRoundTrip(t *testing.T) {
	bases := []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.RBX, x86.RSP, x86.RBP, x86.RSI, x86.RDI,
		x86.R8, x86.R12, x86.R13, x86.R15, x86.RegNone}
	indexes := []x86.Reg{x86.RegNone, x86.RAX, x86.RCX, x86.RBX, x86.RBP, x86.RSI, x86.R9, x86.R14}
	scales := []uint8{1, 2, 4, 8}
	regs := []x86.Reg{x86.RAX, x86.RBX, x86.RSI, x86.R8, x86.R13}

	f := func(bi, ii, si, ri int, disp int32) bool {
		m := x86.Mem{
			Base:  bases[abs(bi)%len(bases)],
			Index: indexes[abs(ii)%len(indexes)],
			Scale: scales[abs(si)%len(scales)],
			Disp:  disp,
		}
		if m.Base == x86.RegNone && m.Index == x86.RegNone && disp < 0 {
			// Absolute addressing with negative disp is not meaningful.
			m.Disp = -disp
		}
		r := regs[abs(ri)%len(regs)]
		b := New()
		b.MovRegMem(r, m)
		img, _, err := b.Finalize(0)
		if err != nil {
			return false
		}
		var inst x86.Inst
		if err := x86.Decode(&inst, img, 0); err != nil || int(inst.Len) != len(img) {
			return false
		}
		got := inst.Mem(inst.Src)
		if inst.Dst.Reg != r || got.Base != m.Base || got.Index != m.Index || got.Disp != m.Disp {
			return false
		}
		if m.Index != x86.RegNone && got.Scale != m.Scale {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}

func TestFinalizeErrors(t *testing.T) {
	b := New()
	b.JmpLabel("missing")
	if _, _, err := b.Finalize(0); err == nil {
		t.Fatal("want error for undefined label")
	}
	b = New()
	b.Label("x")
	b.Label("x")
	b.Ret()
	if _, _, err := b.Finalize(0); err == nil {
		t.Fatal("want error for duplicate label")
	}
}
