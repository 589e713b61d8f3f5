package x86

import (
	"strings"
	"testing"
)

// TestStringAllOps exercises the formatter across every supported
// operation so listings never render empty or panic.
func TestStringAllOps(t *testing.T) {
	mem := Operand{Kind: KindMem, Reg: RAX, Index: RCX, Scale: 4}
	imm := Operand{Kind: KindImm}
	cases := []Inst{
		{Op: OpMov, Dst: RegOp(RAX), Src: imm, Imm: 60, OpSize: 4},
		{Op: OpMov, Dst: mem, Src: RegOp(RBX), Disp: -8, OpSize: 8},
		{Op: OpMovzxB, Dst: RegOp(RAX), Src: mem, Disp: -8, OpSize: 4},
		{Op: OpMovzxW, Dst: RegOp(RAX), Src: RegOp(CH), OpSize: 4},
		{Op: OpMovsxB, Dst: RegOp(RAX), Src: mem, Disp: -8, OpSize: 8},
		{Op: OpMovsxW, Dst: RegOp(RAX), Src: mem, Disp: -8, OpSize: 8},
		{Op: OpMovsxd, Dst: RegOp(RAX), Src: RegOp(RDI), OpSize: 8},
		{Op: OpLea, Dst: RegOp(RSI), Src: mem, Disp: -8, OpSize: 8},
		{Op: OpXor, Dst: RegOp(RDI), Src: RegOp(RDI), OpSize: 4},
		{Op: OpAdd, Dst: RegOp(RSP), Src: imm, Imm: 16, OpSize: 8},
		{Op: OpSub, Dst: RegOp(RSP), Src: imm, Imm: 16, OpSize: 8},
		{Op: OpAnd, Dst: RegOp(RDX), Src: imm, Imm: 0xFF, OpSize: 8},
		{Op: OpOr, Dst: RegOp(RDX), Src: imm, Imm: 1, OpSize: 8},
		{Op: OpCmp, Dst: RegOp(RCX), Src: imm, Imm: 0, OpSize: 8},
		{Op: OpTest, Dst: RegOp(RAX), Src: RegOp(RAX), OpSize: 8},
		{Op: OpShl, Dst: RegOp(RAX), Src: imm, Imm: 3, OpSize: 8},
		{Op: OpShr, Dst: RegOp(RAX), Src: imm, Imm: 1, OpSize: 8},
		{Op: OpInc, Dst: RegOp(R12), OpSize: 8},
		{Op: OpDec, Dst: RegOp(R12), OpSize: 8},
		{Op: OpPush, Dst: RegOp(RBP), OpSize: 8},
		{Op: OpPop, Dst: RegOp(RBP), OpSize: 8},
		{Op: OpCall, Dst: imm, Imm: 0x401000},
		{Op: OpCallInd, Dst: RegOp(RAX)},
		{Op: OpJmp, Dst: imm, Imm: 0x401000},
		{Op: OpJmpInd, Dst: mem, Disp: -8},
		{Op: OpJcc, Cond: CondNE, Dst: imm, Imm: 0x401000},
		{Op: OpRet},
		{Op: OpLeave},
		{Op: OpSyscall},
		{Op: OpNop},
		{Op: OpEndbr64},
		{Op: OpUd2},
		{Op: OpInt3},
		{Op: OpHlt},
		{Op: OpCdqe},
	}
	for _, in := range cases {
		s := in.String()
		if s == "" || strings.Contains(s, "(invalid)") {
			t.Errorf("op %v renders %q", in.Op, s)
		}
	}
	// Condition suffixes must all render.
	for c := Cond(0); c <= CondG; c++ {
		if c.String() == "" {
			t.Errorf("cond %d empty", c)
		}
	}
	if (Inst{Op: OpInvalid}).String() == "" {
		t.Error("invalid op must still render")
	}
	if Op(200).String() == "" || Cond(200).String() == "" || Reg(200).String() == "" {
		t.Error("out-of-range enums must render")
	}
}

func TestBranchTargetNonBranches(t *testing.T) {
	for _, op := range []Op{OpMov, OpRet, OpSyscall, OpCallInd, OpJmpInd} {
		if _, ok := (Inst{Op: op}).BranchTarget(); ok {
			t.Errorf("%v must not report a branch target", op)
		}
	}
}

func TestMemEANonRIP(t *testing.T) {
	in := Inst{Op: OpMov, Dst: RegOp(RAX),
		Src: Operand{Kind: KindMem, Reg: RBX, Index: RegNone, Scale: 1}, Disp: 8}
	if _, ok := in.MemEA(in.Src); ok {
		t.Error("non-RIP memory operand must not have a static EA")
	}
	if _, ok := in.MemEA(in.Dst); ok {
		t.Error("register operand must not have an EA")
	}
}
