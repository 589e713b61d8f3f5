package symex

import (
	"encoding/binary"

	"bside/internal/x86"
)

// step applies the effect of one non-control-flow instruction to st.
// Control transfer is handled by RunToSite's dispatcher; if a control
// instruction lands here (mid-block), it is a no-op.
func (m *Machine) step(st *State, in x86.Inst) {
	switch in.Op {
	case x86.OpMov:
		m.writeOperand(st, in, in.Dst, m.evalOperand(st, in, in.Src))

	case x86.OpLea:
		writeReg(st, in.Dst.Reg, in.OpSize, m.evalEA(st, in, in.Src))

	case x86.OpXor:
		if in.Dst.Kind == x86.KindReg && in.Src.Kind == x86.KindReg && in.Dst.Reg == in.Src.Reg {
			writeReg(st, in.Dst.Reg, in.OpSize, Const(0)) // zeroing idiom
			return
		}
		m.alu(st, in, func(a, b uint64) uint64 { return a ^ b })

	case x86.OpAdd:
		m.addSub(st, in, 1)

	case x86.OpSub:
		m.addSub(st, in, -1)

	case x86.OpAnd:
		m.alu(st, in, func(a, b uint64) uint64 { return a & b })

	case x86.OpOr:
		m.alu(st, in, func(a, b uint64) uint64 { return a | b })

	case x86.OpShl:
		m.alu(st, in, func(a, b uint64) uint64 { return a << (b & 63) })

	case x86.OpShr:
		m.alu(st, in, func(a, b uint64) uint64 { return a >> (b & 63) })

	case x86.OpInc:
		m.incDec(st, in, 1)

	case x86.OpDec:
		m.incDec(st, in, -1)

	case x86.OpPush:
		v := m.evalOperand(st, in, in.Dst)
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

	case x86.OpMovzx, x86.OpMovsx, x86.OpMovsxd:
		v := m.evalOperand(st, in, in.Src)
		if _, ok := v.IsConst(); !ok {
			v = taintedUnknown(v)
		}
		// Constants in this corpus are small non-negative syscall
		// numbers; extension is the identity for them.
		m.writeOperand(st, in, in.Dst, v)

	case x86.OpCdqe:
		v := st.Reg(x86.RAX)
		if k, ok := v.IsConst(); ok {
			st.SetReg(x86.RAX, Const(uint64(int64(int32(uint32(k))))))
		} else {
			st.SetReg(x86.RAX, taintedUnknown(v))
		}

	case x86.OpCmp, x86.OpTest, x86.OpNop, x86.OpEndbr64:
		// Flags are not tracked; both branch directions are explored.

	case x86.OpSyscall:
		st.SetReg(x86.RAX, Unknown())
		st.SetReg(x86.RCX, Unknown())
		st.SetReg(x86.R11, Unknown())
	}
}

func (m *Machine) addSub(st *State, in x86.Inst, sign int64) {
	a := m.evalOperand(st, in, in.Dst)
	b := m.evalOperand(st, in, in.Src)
	var v Value
	ka, aConst := a.IsConst()
	kb, bConst := b.IsConst()
	switch {
	case aConst && bConst:
		if sign > 0 {
			v = truncate(Const(ka+kb), in.OpSize)
		} else {
			v = truncate(Const(ka-kb), in.OpSize)
		}
	case a.Kind == KStackPtr && bConst:
		v = StackPtr(a.StackOff() + sign*int64(kb))
	default:
		v = taintedUnknown2(a, b)
	}
	m.writeOperand(st, in, in.Dst, v)
}

func (m *Machine) alu(st *State, in x86.Inst, f func(a, b uint64) uint64) {
	a := m.evalOperand(st, in, in.Dst)
	b := m.evalOperand(st, in, in.Src)
	ka, aConst := a.IsConst()
	kb, bConst := b.IsConst()
	if aConst && bConst {
		m.writeOperand(st, in, in.Dst, truncate(Const(f(ka, kb)), in.OpSize))
		return
	}
	m.writeOperand(st, in, in.Dst, taintedUnknown2(a, b))
}

func (m *Machine) incDec(st *State, in x86.Inst, sign int64) {
	a := m.evalOperand(st, in, in.Dst)
	if k, ok := a.IsConst(); ok {
		m.writeOperand(st, in, in.Dst, truncate(Const(uint64(int64(k)+sign)), in.OpSize))
		return
	}
	if a.Kind == KStackPtr {
		m.writeOperand(st, in, in.Dst, StackPtr(a.StackOff()+sign))
		return
	}
	m.writeOperand(st, in, in.Dst, taintedUnknown(a))
}

// evalOperand computes the value of an operand.
func (m *Machine) evalOperand(st *State, in x86.Inst, op x86.Operand) Value {
	switch op.Kind {
	case x86.KindImm:
		return Const(uint64(in.Imm))
	case x86.KindReg:
		return truncate(st.Reg(op.Reg), in.OpSize)
	case x86.KindMem:
		return m.load(st, m.evalEA(st, in, op), in.OpSize)
	default:
		return Unknown()
	}
}

// evalEA computes the effective address of op, one of in's memory
// operands.
func (m *Machine) evalEA(st *State, in x86.Inst, op x86.Operand) Value {
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
		if v, ok := st.Overlay[ea.K]; ok {
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
func (m *Machine) writeOperand(st *State, in x86.Inst, op x86.Operand, v Value) {
	switch op.Kind {
	case x86.KindReg:
		writeReg(st, op.Reg, in.OpSize, v)
	case x86.KindMem:
		ea := m.evalEA(st, in, op)
		switch ea.Kind {
		case KStackPtr:
			st.StoreStack(ea.StackOff(), v)
		case KConst:
			st.Overlay[ea.K] = v
		}
		// Stores to unknown addresses are dropped; see package docs.
	}
}

// writeReg stores v into r as a size-byte register write, the one way
// an instruction's destination register is written. An 8- or 4-byte
// write replaces the register (a 4-byte one zero-extends); a 2- or
// 1-byte write keeps the bits above it, so two constants merge into a
// constant and anything else becomes an unknown tainted by both.
func writeReg(st *State, r x86.Reg, size uint8, v Value) {
	v = truncate(v, size)
	if size < 4 {
		old := st.Reg(r)
		ko, oldConst := old.IsConst()
		kv, newConst := v.IsConst()
		if oldConst && newConst {
			mask := uint64(1)<<(8*uint(size)) - 1
			v = Const(ko&^mask | kv)
		} else {
			v = taintedUnknown2(old, v)
		}
	}
	st.SetReg(r, v)
}
