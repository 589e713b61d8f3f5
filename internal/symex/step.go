package symex

import (
	"encoding/binary"

	"bside/internal/x86"
)

// step applies the effect of one non-control-flow instruction to st.
// Control transfer is handled by RunToSite's dispatcher; an instruction
// without a case here clobbers the registers it writes.
func (m *Machine) step(st *State, in *x86.Inst) {
	switch in.Op {
	case x86.OpMov:
		m.writeOperand(st, in, in.Dst, m.evalOperand(st, in, in.Src, in.OpSize))

	case x86.OpLea:
		writeReg(st, in.Dst.Reg, in.OpSize, m.evalEA(st, in, in.Src))

	case x86.OpXor, x86.OpAdd, x86.OpSub, x86.OpAnd, x86.OpOr,
		x86.OpShl, x86.OpShr, x86.OpInc, x86.OpDec:
		m.alu(st, in)

	case x86.OpPush:
		v := m.evalOperand(st, in, in.Dst, in.OpSize)
		rsp := st.Reg(x86.RSP)
		if rsp.Kind == KStackPtr {
			off := rsp.StackOff() - 8
			st.SetReg(x86.RSP, StackPtr(off))
			st.StoreStack(off, v)
		}

	case x86.OpPop:
		rsp := st.Reg(x86.RSP)
		if rsp.Kind == KStackPtr {
			v := st.LoadStack(rsp.StackOff())
			st.SetReg(x86.RSP, StackPtr(rsp.StackOff()+8))
			m.writeOperand(st, in, in.Dst, v)
		} else {
			m.writeOperand(st, in, in.Dst, Unknown())
		}

	case x86.OpLeave:
		st.SetReg(x86.RSP, st.Reg(x86.RBP))
		rsp := st.Reg(x86.RSP)
		if rsp.Kind == KStackPtr {
			st.SetReg(x86.RBP, st.LoadStack(rsp.StackOff()))
			st.SetReg(x86.RSP, StackPtr(rsp.StackOff()+8))
		} else {
			st.SetReg(x86.RBP, Unknown())
		}

	case x86.OpMovzxB, x86.OpMovzxW, x86.OpMovsxB, x86.OpMovsxW, x86.OpMovsxd, x86.OpCdqe:
		dst, src := in.Dst, in.Src
		if in.Op == x86.OpCdqe { // extends RAX in place
			dst, src = x86.RegOp(x86.RAX), x86.RegOp(x86.RAX)
		}
		v := m.evalOperand(st, in, src, in.SrcSize())
		if k, ok := v.IsConst(); ok {
			k, _ = x86.Fold(in.Op, 0, k, in.OpSize)
			v = Const(k)
		} else {
			v = taintedUnknown(v)
		}
		m.writeOperand(st, in, dst, v)

	case x86.OpCmp, x86.OpTest, x86.OpNop, x86.OpEndbr64:
		// Flags are not tracked; both branch directions are explored.

	default:
		// A syscall on the way to the site clobbers what the kernel
		// writes; so does any other instruction without a case here.
		st.havoc(in.Writes())
	}
}

// alu applies an ALU instruction: constants fold through x86.Fold, a
// stack pointer moved by a constant stays a stack pointer, and
// anything else becomes an unknown tainted by both operands.
func (m *Machine) alu(st *State, in *x86.Inst) {
	if in.Op == x86.OpXor && in.Dst.Kind == x86.KindReg && in.Src == in.Dst {
		writeReg(st, in.Dst.Reg, in.OpSize, Const(0)) // zeroing idiom
		return
	}
	a := m.evalOperand(st, in, in.Dst, in.OpSize)
	b := Const(1) // inc and dec
	if in.Src.Kind != x86.KindNone {
		b = m.evalOperand(st, in, in.Src, in.OpSize)
	}
	ka, aConst := a.IsConst()
	kb, bConst := b.IsConst()
	v := taintedUnknown2(a, b)
	switch {
	case aConst && bConst:
		k, _ := x86.Fold(in.Op, ka, kb, in.OpSize)
		v = Const(k)
	case a.Kind == KStackPtr && bConst:
		switch in.Op {
		case x86.OpAdd, x86.OpInc:
			v = StackPtr(a.StackOff() + int64(kb))
		case x86.OpSub, x86.OpDec:
			v = StackPtr(a.StackOff() - int64(kb))
		}
	}
	m.writeOperand(st, in, in.Dst, v)
}

// evalOperand computes the value of op, one of in's operands, read at
// size bytes.
func (m *Machine) evalOperand(st *State, in *x86.Inst, op x86.Operand, size uint8) Value {
	switch op.Kind {
	case x86.KindImm:
		return Const(uint64(in.Imm))
	case x86.KindReg:
		v := st.Reg(op.Reg.Full())
		if !op.Reg.High() {
			return truncate(v, size)
		}
		if k, ok := v.IsConst(); ok { // AH, CH, DH or BH: bits 8-15
			return Const(k >> 8 & 0xFF)
		}
		return taintedUnknown(v)
	case x86.KindMem:
		return m.load(st, m.evalEA(st, in, op), size)
	default:
		return Unknown()
	}
}

// evalEA computes the effective address of op, one of in's memory
// operands.
func (m *Machine) evalEA(st *State, in *x86.Inst, op x86.Operand) Value {
	if ea, ok := in.MemEA(op); ok {
		return Const(ea)
	}
	base := Const(0)
	if op.Reg != x86.RegNone {
		base = st.Reg(op.Reg)
	}
	idx := Const(0)
	if op.Index != x86.RegNone {
		idx = st.Reg(op.Index)
	}
	kb, baseConst := base.IsConst()
	ki, idxConst := idx.IsConst()
	switch {
	case baseConst && idxConst:
		return Const(kb + ki*uint64(op.Scale) + uint64(int64(in.Disp)))
	case base.Kind == KStackPtr && idxConst:
		return StackPtr(base.StackOff() + int64(ki*uint64(op.Scale)) + int64(in.Disp))
	default:
		return taintedUnknown2(base, idx)
	}
}

// load reads size bytes at the (symbolic) address ea.
func (m *Machine) load(st *State, ea Value, size uint8) Value {
	switch ea.Kind {
	case KStackPtr:
		return truncate(st.LoadStack(ea.StackOff()), size)
	case KConst:
		if v, ok := st.overlay[ea.K]; ok {
			return truncate(v, size)
		}
		if m.importSlots[ea.K] {
			// GOT slots are filled by the loader; statically opaque.
			return Unknown()
		}
		if raw, ok := m.g.Bin.BytesAt(ea.K); ok && len(raw) >= int(size) {
			switch size {
			case 8:
				return Const(binary.LittleEndian.Uint64(raw))
			case 4:
				return Const(uint64(binary.LittleEndian.Uint32(raw)))
			case 2:
				return Const(uint64(binary.LittleEndian.Uint16(raw)))
			case 1:
				return Const(uint64(raw[0]))
			}
		}
		return Unknown()
	default:
		return Unknown()
	}
}

// writeOperand stores v into a register or memory destination.
func (m *Machine) writeOperand(st *State, in *x86.Inst, op x86.Operand, v Value) {
	switch op.Kind {
	case x86.KindReg:
		writeReg(st, op.Reg, in.OpSize, v)
	case x86.KindMem:
		ea := m.evalEA(st, in, op)
		switch ea.Kind {
		case KStackPtr:
			st.StoreStack(ea.StackOff(), v)
		case KConst:
			st.storeMem(ea.K, v)
		}
		// Stores to unknown addresses are dropped; see package docs.
	}
}

// writeReg stores v into r as a size-byte register write, the one way
// an instruction's destination register is written. An 8- or 4-byte
// write replaces the register (a 4-byte one zero-extends); a 2- or
// 1-byte write, and a write to AH, CH, DH or BH (bits 8-15), keeps the
// other bits, so two constants merge into a constant and anything else
// becomes an unknown tainted by both.
func writeReg(st *State, r x86.Reg, size uint8, v Value) {
	v = truncate(v, size)
	if size < 4 {
		shift := uint(0)
		if r.High() {
			r, shift = r.Full(), 8
		}
		old := st.Reg(r)
		ko, oldConst := old.IsConst()
		kv, newConst := v.IsConst()
		if oldConst && newConst {
			mask := (uint64(1)<<(8*uint(size)) - 1) << shift
			v = Const(ko&^mask | kv<<shift)
		} else {
			v = taintedUnknown2(old, v)
		}
	}
	st.SetReg(r, v)
}
