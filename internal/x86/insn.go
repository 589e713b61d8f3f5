package x86

import (
	"fmt"
	"strings"
)

// Op enumerates the operations the decoder understands.
type Op uint8

// Supported operations.
const (
	OpInvalid Op = iota
	OpMov
	OpMovzxB // movzx from a byte source
	OpMovzxW // movzx from a word source
	OpMovsxB // movsx from a byte source
	OpMovsxW // movsx from a word source
	OpMovsxd
	OpLea
	OpXor
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpCmp
	OpTest
	OpShl
	OpShr
	OpInc
	OpDec
	OpPush
	OpPop
	OpCall    // direct near call; Dst is KindImm and Imm holds the absolute target
	OpCallInd // indirect call through register or memory
	OpJmp     // direct jump
	OpJmpInd  // indirect jump
	OpJcc     // conditional jump, condition in Cond
	OpRet
	OpLeave
	OpSyscall
	OpNop
	OpEndbr64
	OpUd2
	OpInt3
	OpHlt
	OpCdqe
)

var opNames = [...]string{
	OpInvalid: "(invalid)",
	OpMov:     "mov",
	OpMovzxB:  "movzx",
	OpMovzxW:  "movzx",
	OpMovsxB:  "movsx",
	OpMovsxW:  "movsx",
	OpMovsxd:  "movsxd",
	OpLea:     "lea",
	OpXor:     "xor",
	OpAdd:     "add",
	OpSub:     "sub",
	OpAnd:     "and",
	OpOr:      "or",
	OpCmp:     "cmp",
	OpTest:    "test",
	OpShl:     "shl",
	OpShr:     "shr",
	OpInc:     "inc",
	OpDec:     "dec",
	OpPush:    "push",
	OpPop:     "pop",
	OpCall:    "call",
	OpCallInd: "call",
	OpJmp:     "jmp",
	OpJmpInd:  "jmp",
	OpJcc:     "j",
	OpRet:     "ret",
	OpLeave:   "leave",
	OpSyscall: "syscall",
	OpNop:     "nop",
	OpEndbr64: "endbr64",
	OpUd2:     "ud2",
	OpInt3:    "int3",
	OpHlt:     "hlt",
	OpCdqe:    "cdqe",
}

// String returns the mnemonic for the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cond enumerates condition codes for Jcc, in hardware encoding order
// (the low nibble of the 0F 8x opcode).
type Cond uint8

// Condition codes.
const (
	CondO  Cond = 0x0 // overflow
	CondNO Cond = 0x1
	CondB  Cond = 0x2 // below (unsigned <)
	CondAE Cond = 0x3
	CondE  Cond = 0x4 // equal / zero
	CondNE Cond = 0x5
	CondBE Cond = 0x6
	CondA  Cond = 0x7
	CondS  Cond = 0x8 // sign
	CondNS Cond = 0x9
	CondP  Cond = 0xA
	CondNP Cond = 0xB
	CondL  Cond = 0xC // less (signed <)
	CondGE Cond = 0xD
	CondLE Cond = 0xE
	CondG  Cond = 0xF
)

var condNames = [...]string{
	CondO: "o", CondNO: "no", CondB: "b", CondAE: "ae",
	CondE: "e", CondNE: "ne", CondBE: "be", CondA: "a",
	CondS: "s", CondNS: "ns", CondP: "p", CondNP: "np",
	CondL: "l", CondGE: "ge", CondLE: "le", CondG: "g",
}

// String returns the condition suffix ("e", "ne", ...).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cc(%d)", uint8(c))
}

// OperandKind discriminates an Operand.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
)

// Mem describes a memory operand: [Base + Index*Scale + Disp], or a
// RIP-relative reference when Base == RIP (the effective address is then
// the address of the following instruction plus Disp).
type Mem struct {
	Base  Reg
	Index Reg
	Scale uint8 // 1, 2, 4 or 8; meaningful only when Index != RegNone
	Disp  int32
}

// String renders the memory operand in Intel-like syntax.
func (m Mem) String() string {
	var b strings.Builder
	b.WriteByte('[')
	wrote := false
	if m.Base != RegNone {
		b.WriteString(m.Base.String())
		wrote = true
	}
	if m.Index != RegNone {
		if wrote {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s*%d", m.Index, m.Scale)
		wrote = true
	}
	if m.Disp != 0 || !wrote {
		if wrote && m.Disp >= 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%#x", m.Disp)
	}
	b.WriteByte(']')
	return b.String()
}

// Operand is a single instruction operand, in 4 bytes: an instruction
// carries at most one immediate and at most one memory operand, so the
// immediate value and the displacement live on the Inst (Imm, Disp)
// and an operand only says which of them it is. Check Kind before
// reading Reg.
type Operand struct {
	Kind  OperandKind
	Reg   Reg   // the register (KindReg), or the base register, RIP or RegNone (KindMem)
	Index Reg   // KindMem: the index register, RegNone when absent
	Scale uint8 // KindMem: 1, 2, 4 or 8; meaningful only with an index
}

// RegOp builds a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// Inst is one decoded instruction. It is 32 bytes and holds no
// pointers, so an arena of them is never scanned by the garbage
// collector. It has more fields than the compiler keeps in registers,
// so its queries take *Inst and hot code reads instructions in place:
// a by-value copy goes through memory, and one that reloads a record
// Decode has just written field by field stalls on store forwarding.
type Inst struct {
	Addr   uint64 // virtual address of the first byte
	Imm    int64  // the KindImm operand's value, or a direct branch's absolute target
	Disp   int32  // the KindMem operand's displacement
	Len    uint8  // encoded length in bytes
	Op     Op
	Cond   Cond    // valid when Op == OpJcc
	OpSize uint8   // effective operand size in bytes: 1, 2, 4 or 8
	Dst    Operand // first operand (destination for two-operand forms)
	Src    Operand // second operand
}

// Next returns the address of the instruction following i.
func (i *Inst) Next() uint64 { return i.Addr + uint64(i.Len) }

// BranchTarget returns the absolute target of a direct call/jmp/jcc and
// true, or 0 and false for any other instruction.
func (i *Inst) BranchTarget() (uint64, bool) {
	switch i.Op {
	case OpCall, OpJmp, OpJcc:
		return uint64(i.Imm), true
	}
	return 0, false
}

// Mem returns the memory reference of o, one of i's operands. It is
// meaningful only when o.Kind == KindMem.
func (i *Inst) Mem(o Operand) Mem {
	return Mem{Base: o.Reg, Index: o.Index, Scale: o.Scale, Disp: i.Disp}
}

// MemEA returns the concrete effective address of a RIP-relative memory
// operand and true; for all other operand shapes it returns false.
func (i *Inst) MemEA(o Operand) (uint64, bool) {
	if o.Kind != KindMem || o.Reg != RIP {
		return 0, false
	}
	return i.Next() + uint64(int64(i.Disp)), true
}

// EndsBlock reports whether the instruction ends a basic block: a
// jump, call or return, a trap, or syscall.
func (i *Inst) EndsBlock() bool {
	switch i.Op {
	case OpJmp, OpJmpInd, OpJcc, OpCall, OpCallInd, OpRet, OpSyscall, OpUd2, OpInt3, OpHlt:
		return true
	}
	return false
}

// FallsThrough reports whether execution may continue at Next: after
// anything but an unconditional jump, a return or a trap.
func (i *Inst) FallsThrough() bool {
	switch i.Op {
	case OpJmp, OpJmpInd, OpRet, OpUd2, OpInt3, OpHlt:
		return false
	}
	return true
}

// Writes returns the registers the instruction may change: a register
// destination (AH's is RAX), RSP for push, pop and ret, RAX for cdqe,
// RSP and RBP for leave, CallerSaved for a call (its return undoes its
// push), and for syscall RAX, RCX and R11 (the kernel's result, the
// saved RIP and RFLAGS).
func (i *Inst) Writes() RegSet {
	var dst RegSet
	if i.Dst.Kind == KindReg {
		dst = RegSetOf(i.Dst.Reg)
	}
	switch i.Op {
	case OpMov, OpMovzxB, OpMovzxW, OpMovsxB, OpMovsxW, OpMovsxd, OpLea,
		OpXor, OpAdd, OpSub, OpAnd, OpOr, OpShl, OpShr, OpInc, OpDec:
		return dst
	case OpPop:
		return dst | 1<<RSP
	case OpPush, OpRet:
		return 1 << RSP
	case OpLeave:
		return 1<<RSP | 1<<RBP
	case OpCdqe:
		return 1 << RAX
	case OpCall, OpCallInd:
		return CallerSaved
	case OpSyscall:
		return 1<<RAX | 1<<RCX | 1<<R11
	}
	return 0 // flags only, control flow, or nothing
}

// SrcSize returns the width in bytes at which the instruction reads its
// source: 1 or 2 for movzx and movsx, 4 for movsxd, half of OpSize for
// cdqe (which sign-extends the low half of RAX), else OpSize.
func (i *Inst) SrcSize() uint8 {
	switch i.Op {
	case OpMovzxB, OpMovsxB:
		return 1
	case OpMovzxW, OpMovsxW:
		return 2
	case OpMovsxd:
		return 4
	case OpCdqe:
		return i.OpSize / 2
	}
	return i.OpSize
}

// Fold returns the value op computes at operand size size from the
// constants a, the destination's old value, and b, the source's; false
// means op computes no value (a move, a comparison, control flow). Inc
// and dec read only a; the extensions (movzx, movsx, movsxd, and cdqe
// of RAX) only b, at their source width. The result is zero-extended
// from size bytes, as a 4-byte write leaves a register; a caller
// merges a 1- or 2-byte result into the bits above it.
func Fold(op Op, a, b uint64, size uint8) (uint64, bool) {
	a, b = trunc(a, size), trunc(b, size)
	count := b & 31 // shift counts are masked to 5 bits, 6 for 8 bytes
	if size == 8 {
		count = b & 63
	}
	var v uint64
	switch op {
	case OpAdd:
		v = a + b
	case OpSub:
		v = a - b
	case OpAnd:
		v = a & b
	case OpOr:
		v = a | b
	case OpXor:
		v = a ^ b
	case OpShl:
		v = a << count
	case OpShr:
		v = a >> count
	case OpInc:
		v = a + 1
	case OpDec:
		v = a - 1
	case OpMovzxB, OpMovzxW:
		v = trunc(b, (&Inst{Op: op}).SrcSize())
	case OpMovsxB, OpMovsxW, OpMovsxd, OpCdqe:
		v = signExtend(b, (&Inst{Op: op, OpSize: size}).SrcSize())
	default:
		return 0, false
	}
	return trunc(v, size), true
}

// trunc keeps the low size bytes of v.
func trunc(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}

// signExtend extends the low size bytes of v by their sign.
func signExtend(v uint64, size uint8) uint64 {
	shift := 64 - 8*uint(size)
	return uint64(int64(v<<shift) >> shift)
}

// IsCall reports whether the instruction is a direct or indirect call.
func (i *Inst) IsCall() bool { return i.Op == OpCall || i.Op == OpCallInd }

// IsIndirect reports whether the instruction is an indirect call or
// jump.
func (i *Inst) IsIndirect() bool { return i.Op == OpCallInd || i.Op == OpJmpInd }

// String renders the instruction in Intel-like syntax.
func (i Inst) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%#08x: ", i.Addr)
	switch i.Op {
	case OpJcc:
		fmt.Fprintf(&b, "j%s %#x", i.Cond, i.Imm)
	case OpCall, OpJmp:
		fmt.Fprintf(&b, "%s %#x", i.Op, i.Imm)
	default:
		b.WriteString(i.Op.String())
		if i.Dst.Kind != KindNone {
			b.WriteByte(' ')
			b.WriteString(i.operandString(i.Dst, i.OpSize))
		}
		if i.Src.Kind != KindNone {
			b.WriteString(", ")
			b.WriteString(i.operandString(i.Src, i.SrcSize()))
		}
	}
	return b.String()
}

// operandString renders o, one of i's operands, naming a register at
// width size; a memory operand's base and index keep 64-bit names.
func (i *Inst) operandString(o Operand, size uint8) string {
	switch o.Kind {
	case KindReg:
		return o.Reg.Name(size)
	case KindImm:
		return fmt.Sprintf("%#x", i.Imm)
	case KindMem:
		return i.Mem(o).String()
	default:
		return "<none>"
	}
}
