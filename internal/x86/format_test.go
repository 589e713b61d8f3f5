package x86

import "testing"

// TestStringAllOps renders every supported operation. A register reads
// at the operand size, a movzx, movsx or movsxd source at its own
// width, and a memory operand's base and index at 64 bits.
func TestStringAllOps(t *testing.T) {
	mem := Operand{Kind: KindMem, Reg: RAX, Index: RCX, Scale: 4}
	imm := Operand{Kind: KindImm}
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpMov, Dst: RegOp(RAX), Src: imm, Imm: 60, OpSize: 4}, "mov eax, 0x3c"},
		{Inst{Op: OpMov, Dst: mem, Src: RegOp(RBX), Disp: -8, OpSize: 8}, "mov [rax+rcx*4-0x8], rbx"},
		{Inst{Op: OpMov, Dst: RegOp(R8), Src: RegOp(RSI), OpSize: 1}, "mov r8b, sil"},
		{Inst{Op: OpMovzxB, Dst: RegOp(RAX), Src: mem, Disp: -8, OpSize: 4}, "movzx eax, [rax+rcx*4-0x8]"},
		{Inst{Op: OpMovzxB, Dst: RegOp(RAX), Src: RegOp(CH), OpSize: 4}, "movzx eax, ch"},
		{Inst{Op: OpMovzxW, Dst: RegOp(R10), Src: RegOp(R11), OpSize: 4}, "movzx r10d, r11w"},
		{Inst{Op: OpMovsxB, Dst: RegOp(RAX), Src: RegOp(RDI), OpSize: 8}, "movsx rax, dil"},
		{Inst{Op: OpMovsxW, Dst: RegOp(RAX), Src: mem, Disp: -8, OpSize: 8}, "movsx rax, [rax+rcx*4-0x8]"},
		{Inst{Op: OpMovsxd, Dst: RegOp(RAX), Src: RegOp(RDI), OpSize: 8}, "movsxd rax, edi"},
		{Inst{Op: OpLea, Dst: RegOp(RSI), Src: mem, Disp: -8, OpSize: 8}, "lea rsi, [rax+rcx*4-0x8]"},
		{Inst{Op: OpXor, Dst: RegOp(RDI), Src: RegOp(RDI), OpSize: 4}, "xor edi, edi"},
		{Inst{Op: OpAdd, Dst: RegOp(RSP), Src: imm, Imm: 16, OpSize: 8}, "add rsp, 0x10"},
		{Inst{Op: OpSub, Dst: RegOp(RSP), Src: imm, Imm: 16, OpSize: 8}, "sub rsp, 0x10"},
		{Inst{Op: OpAnd, Dst: RegOp(R9), Src: imm, Imm: 0xFF, OpSize: 2}, "and r9w, 0xff"},
		{Inst{Op: OpOr, Dst: RegOp(RDX), Src: imm, Imm: 1, OpSize: 2}, "or dx, 0x1"},
		{Inst{Op: OpCmp, Dst: RegOp(RCX), Src: imm, Imm: 0, OpSize: 1}, "cmp cl, 0x0"},
		{Inst{Op: OpTest, Dst: RegOp(RAX), Src: RegOp(RAX), OpSize: 8}, "test rax, rax"},
		{Inst{Op: OpShl, Dst: RegOp(RAX), Src: imm, Imm: 3, OpSize: 8}, "shl rax, 0x3"},
		{Inst{Op: OpShr, Dst: RegOp(RAX), Src: imm, Imm: 1, OpSize: 8}, "shr rax, 0x1"},
		{Inst{Op: OpInc, Dst: RegOp(R12), OpSize: 4}, "inc r12d"},
		{Inst{Op: OpDec, Dst: RegOp(R12), OpSize: 8}, "dec r12"},
		{Inst{Op: OpPush, Dst: RegOp(RBP), OpSize: 8}, "push rbp"},
		{Inst{Op: OpPop, Dst: RegOp(RBP), OpSize: 8}, "pop rbp"},
		{Inst{Op: OpCall, Dst: imm, Imm: 0x401000}, "call 0x401000"},
		{Inst{Op: OpCallInd, Dst: RegOp(RAX), OpSize: 8}, "call rax"},
		{Inst{Op: OpJmp, Dst: imm, Imm: 0x401000}, "jmp 0x401000"},
		{Inst{Op: OpJmpInd, Dst: mem, Disp: -8, OpSize: 8}, "jmp [rax+rcx*4-0x8]"},
		{Inst{Op: OpJcc, Cond: CondNE, Dst: imm, Imm: 0x401000}, "jne 0x401000"},
		{Inst{Op: OpRet}, "ret"},
		{Inst{Op: OpLeave}, "leave"},
		{Inst{Op: OpSyscall}, "syscall"},
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpEndbr64}, "endbr64"},
		{Inst{Op: OpUd2}, "ud2"},
		{Inst{Op: OpInt3}, "int3"},
		{Inst{Op: OpHlt}, "hlt"},
		{Inst{Op: OpCdqe, OpSize: 8}, "cdqe"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != "0x00000000: "+c.want {
			t.Errorf("op %v renders %q, want %q", c.in.Op, got, c.want)
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
		if _, ok := (&Inst{Op: op}).BranchTarget(); ok {
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
