package x86

import "testing"

// TestInstAnswersEveryOp pins what each operation does, as every
// analysis layer reads it: whether it ends a block, whether it falls
// through, which registers it writes (for a register destination RDX
// and source RSI), and what Fold computes for a = 0x800000f0 and
// b = 0x1_0000_7f83 at four bytes. b's upper half is dropped, and its
// low five bits (3) are the shift count.
func TestInstAnswersEveryOp(t *testing.T) {
	const dst = RegSet(1 << RDX)
	type answer struct {
		ends, falls bool
		writes      RegSet
		fold        uint64
		folds       bool
	}
	plain := answer{falls: true}
	want := map[Op]answer{
		OpInvalid: plain,
		OpMov:     {falls: true, writes: dst},
		OpMovzxB:  {falls: true, writes: dst, fold: 0x83, folds: true},
		OpMovzxW:  {falls: true, writes: dst, fold: 0x7f83, folds: true},
		OpMovsxB:  {falls: true, writes: dst, fold: 0xffffff83, folds: true},
		OpMovsxW:  {falls: true, writes: dst, fold: 0x7f83, folds: true},
		OpMovsxd:  {falls: true, writes: dst, fold: 0x7f83, folds: true},
		OpLea:     {falls: true, writes: dst},
		OpXor:     {falls: true, writes: dst, fold: 0x80007f73, folds: true},
		OpAdd:     {falls: true, writes: dst, fold: 0x80008073, folds: true},
		OpSub:     {falls: true, writes: dst, fold: 0x7fff816d, folds: true},
		OpAnd:     {falls: true, writes: dst, fold: 0x80, folds: true},
		OpOr:      {falls: true, writes: dst, fold: 0x80007ff3, folds: true},
		OpCmp:     plain,
		OpTest:    plain,
		OpShl:     {falls: true, writes: dst, fold: 0x780, folds: true},
		OpShr:     {falls: true, writes: dst, fold: 0x1000001e, folds: true},
		OpInc:     {falls: true, writes: dst, fold: 0x800000f1, folds: true},
		OpDec:     {falls: true, writes: dst, fold: 0x800000ef, folds: true},
		OpPush:    {falls: true, writes: 1 << RSP},
		OpPop:     {falls: true, writes: dst | 1<<RSP},
		OpCall:    {ends: true, falls: true, writes: CallerSaved},
		OpCallInd: {ends: true, falls: true, writes: CallerSaved},
		OpJmp:     {ends: true},
		OpJmpInd:  {ends: true},
		OpJcc:     {ends: true, falls: true},
		OpRet:     {ends: true, writes: 1 << RSP},
		OpLeave:   {falls: true, writes: 1<<RSP | 1<<RBP},
		OpSyscall: {ends: true, falls: true, writes: 1<<RAX | 1<<RCX | 1<<R11},
		OpNop:     plain,
		OpEndbr64: plain,
		OpUd2:     {ends: true},
		OpInt3:    {ends: true},
		OpHlt:     {ends: true},
		OpCdqe:    {falls: true, writes: 1 << RAX, fold: 0x7f83, folds: true}, // cwde at four bytes
	}
	for op := Op(0); int(op) < len(opNames); op++ {
		w, ok := want[op]
		if !ok {
			t.Errorf("%v (%d) has no row", op, op)
			continue
		}
		in := Inst{Op: op, Dst: RegOp(RDX), Src: RegOp(RSI), OpSize: 4}
		if in.EndsBlock() != w.ends || in.FallsThrough() != w.falls || in.Writes() != w.writes {
			t.Errorf("%v: ends %v falls %v writes %#x, want %v %v %#x",
				op, in.EndsBlock(), in.FallsThrough(), in.Writes(), w.ends, w.falls, w.writes)
		}
		if v, ok := Fold(op, 0x800000f0, 0x1_0000_7f83, 4); v != w.fold || ok != w.folds {
			t.Errorf("%v: Fold = %#x, %v, want %#x, %v", op, v, ok, w.fold, w.folds)
		}
	}
}

// TestWritesNamesTheFullRegister: a memory destination writes no
// register, and a byte write, AH's included, is a write to the 64-bit
// register it is part of.
func TestWritesNamesTheFullRegister(t *testing.T) {
	mem := Operand{Kind: KindMem, Reg: RAX, Index: RegNone, Scale: 1}
	for _, c := range []struct {
		in   Inst
		want RegSet
	}{
		{Inst{Op: OpAdd, Dst: mem, Src: RegOp(RCX), OpSize: 8}, 0},
		{Inst{Op: OpMov, Dst: RegOp(AH), Src: RegOp(RCX), OpSize: 1}, 1 << RAX},
		{Inst{Op: OpXor, Dst: RegOp(BH), Src: RegOp(BH), OpSize: 1}, 1 << RBX},
		{Inst{Op: OpMovzxB, Dst: RegOp(R9), Src: RegOp(CH), OpSize: 4}, 1 << R9},
		{Inst{Op: OpPop, Dst: mem, OpSize: 8}, 1 << RSP},
		{Inst{Op: OpJmpInd, Dst: RegOp(RDI), OpSize: 8}, 0},
	} {
		if got := c.in.Writes(); got != c.want {
			t.Errorf("%v: writes %#x, want %#x", c.in, got, c.want)
		}
	}
}

// TestFoldWidths: results narrower than eight bytes wrap and are
// zero-extended, the shift count is masked to the operand size, a
// 4-byte shr reads only the low half of its operand, and the
// extensions run from their source width.
func TestFoldWidths(t *testing.T) {
	for _, c := range []struct {
		op   Op
		a, b uint64
		size uint8
		want uint64
	}{
		{OpAdd, 0xffffffff, 0x3d, 4, 0x3c}, // mov eax, -1; add eax, 0x3d
		{OpAdd, 0xffffffff, 0x3d, 8, 0x10000003c},
		{OpSub, 0, 1, 2, 0xffff},
		{OpInc, 0xff, 0, 1, 0},
		{OpDec, 0, 0, 8, 0xffffffffffffffff},
		{OpShl, 1, 33, 4, 2},
		{OpShl, 1, 33, 8, 1 << 33},
		{OpShr, 0xffffffffffffffff, 4, 4, 0x0fffffff},
		{OpAnd, 0x1ff, 0xffffffffffffff0f, 8, 0x10f},
		{OpCdqe, 0, 0x80000000, 8, 0xffffffff80000000},
		{OpCdqe, 0, 0x7fffffff, 8, 0x7fffffff},
		{OpCdqe, 0, 0x18000, 4, 0xffff8000}, // cwde
		{OpMovsxB, 0, 0x80, 2, 0xff80},
		{OpMovsxW, 0, 0x18000, 8, 0xffffffffffff8000},
		{OpMovzxB, 0, 0x127, 4, 0x27},
		{OpMovzxW, 0, 0x10027, 4, 0x27},
		{OpMovsxd, 0, 0xfffffffe, 8, 0xfffffffffffffffe},
	} {
		if got, ok := Fold(c.op, c.a, c.b, c.size); !ok || got != c.want {
			t.Errorf("Fold(%v, %#x, %#x, %d) = %#x, %v, want %#x", c.op, c.a, c.b, c.size, got, ok, c.want)
		}
	}
}
