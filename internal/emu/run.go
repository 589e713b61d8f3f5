package emu

import (
	"fmt"

	"bside/internal/linux"
	"bside/internal/x86"
)

// Run executes until exit, a trap, or maxSteps instructions.
func (m *Machine) Run(maxSteps int) error {
	return m.RunBudget(Budget{MaxSteps: maxSteps})
}

// RunBudget executes until exit, a trap, or the budget's step limit.
func (m *Machine) RunBudget(budget Budget) error {
	maxSteps := budget.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	m.maxTrace = budget.MaxTrace
	var in x86.Inst
	for m.Steps < maxSteps {
		if m.rip == haltAddr {
			m.Exited = true
			return nil
		}
		buf, err := m.fetch(m.rip)
		if err != nil {
			return err
		}
		if err := x86.Decode(&in, buf, m.rip); err != nil {
			return fmt.Errorf("%w: undecodable at %#x: %v", ErrTrap, m.rip, err)
		}
		m.Steps++
		next := in.Next()
		if err := m.exec(&in, &next); err != nil {
			return err
		}
		if m.Exited {
			return nil
		}
		m.rip = next
	}
	return ErrSteps
}

func (m *Machine) exec(in *x86.Inst, next *uint64) error {
	switch in.Op {
	case x86.OpNop, x86.OpEndbr64:
	case x86.OpCdqe: // cdqe, cwde or cbw: sign-extend the low half of RAX
		m.setReg(x86.RAX, in.OpSize, signExtend(m.regs[x86.RAX], in.SrcSize()))

	case x86.OpMov:
		v, err := m.readOperand(in, in.Src, in.OpSize)
		if err != nil {
			return err
		}
		return m.writeOperand(in, in.Dst, v)

	case x86.OpLea:
		ea, err := m.effAddr(in, in.Src)
		if err != nil {
			return err
		}
		m.setReg(in.Dst.Reg, in.OpSize, ea)

	case x86.OpMovzxB, x86.OpMovzxW, x86.OpMovsxB, x86.OpMovsxW, x86.OpMovsxd:
		v, err := m.readOperand(in, in.Src, in.SrcSize())
		if err != nil {
			return err
		}
		if in.Op != x86.OpMovzxB && in.Op != x86.OpMovzxW {
			v = signExtend(v, in.SrcSize())
		}
		return m.writeOperand(in, in.Dst, v)

	case x86.OpAdd, x86.OpSub, x86.OpAnd, x86.OpOr, x86.OpXor, x86.OpCmp, x86.OpTest:
		a, err := m.readOperand(in, in.Dst, in.OpSize)
		if err != nil {
			return err
		}
		b, err := m.readOperand(in, in.Src, in.OpSize)
		if err != nil {
			return err
		}
		res := m.alu(in.Op, a, b, in.OpSize)
		if in.Op == x86.OpCmp || in.Op == x86.OpTest {
			return nil
		}
		return m.writeOperand(in, in.Dst, res)

	case x86.OpShl, x86.OpShr:
		a, err := m.readOperand(in, in.Dst, in.OpSize)
		if err != nil {
			return err
		}
		b, err := m.readOperand(in, in.Src, in.OpSize)
		if err != nil {
			return err
		}
		mask := uint64(31) // the count is masked to 5 bits, 6 for 8-byte operands
		if in.OpSize == 8 {
			mask = 63
		}
		var res uint64
		if in.Op == x86.OpShl {
			res = a << (b & mask)
		} else {
			res = a >> (b & mask)
		}
		res = truncVal(res, in.OpSize)
		m.setZFSF(res, in.OpSize)
		return m.writeOperand(in, in.Dst, res)

	case x86.OpInc, x86.OpDec:
		a, err := m.readOperand(in, in.Dst, in.OpSize)
		if err != nil {
			return err
		}
		var res uint64
		if in.Op == x86.OpInc {
			res = truncVal(a+1, in.OpSize)
		} else {
			res = truncVal(a-1, in.OpSize)
		}
		m.setZFSF(res, in.OpSize)
		return m.writeOperand(in, in.Dst, res)

	case x86.OpPush:
		v, err := m.readOperand(in, in.Dst, in.OpSize)
		if err != nil {
			return err
		}
		m.regs[x86.RSP] -= 8
		return m.write(m.regs[x86.RSP], 8, v)

	case x86.OpPop:
		v, err := m.read(m.regs[x86.RSP], 8)
		if err != nil {
			return err
		}
		m.regs[x86.RSP] += 8
		return m.writeOperand(in, in.Dst, v)

	case x86.OpLeave:
		m.regs[x86.RSP] = m.regs[x86.RBP]
		v, err := m.read(m.regs[x86.RSP], 8)
		if err != nil {
			return err
		}
		m.regs[x86.RBP] = v
		m.regs[x86.RSP] += 8

	case x86.OpCall:
		m.regs[x86.RSP] -= 8
		if err := m.write(m.regs[x86.RSP], 8, in.Next()); err != nil {
			return err
		}
		*next = uint64(in.Imm)

	case x86.OpCallInd:
		tgt, err := m.readOperand(in, in.Dst, in.OpSize)
		if err != nil {
			return err
		}
		m.regs[x86.RSP] -= 8
		if err := m.write(m.regs[x86.RSP], 8, in.Next()); err != nil {
			return err
		}
		*next = tgt

	case x86.OpJmp:
		*next = uint64(in.Imm)

	case x86.OpJmpInd:
		tgt, err := m.readOperand(in, in.Dst, in.OpSize)
		if err != nil {
			return err
		}
		*next = tgt

	case x86.OpJcc:
		if m.cond(in.Cond) {
			*next = uint64(in.Imm)
		}

	case x86.OpRet:
		v, err := m.read(m.regs[x86.RSP], 8)
		if err != nil {
			return err
		}
		m.regs[x86.RSP] += 8
		*next = v

	case x86.OpSyscall:
		nr := m.regs[x86.RAX]
		if m.seen == nil {
			m.seen = make(map[uint64]bool)
		}
		m.seen[nr] = true
		if m.maxTrace <= 0 || len(m.Trace) < m.maxTrace {
			m.Trace = append(m.Trace, nr)
		}
		if nr == linux.SysExit || nr == linux.SysExitGroup {
			m.Exited = true
			m.ExitCode = m.regs[x86.RDI]
			return nil
		}
		// Generic kernel return: success, clobber rcx/r11 per the ABI.
		m.regs[x86.RAX] = 0
		m.regs[x86.RCX] = in.Next()
		m.regs[x86.R11] = 0x246

	case x86.OpUd2, x86.OpInt3, x86.OpHlt:
		return fmt.Errorf("%w: %v at %#x", ErrTrap, in.Op, in.Addr)

	default:
		return fmt.Errorf("%w: unsupported %v at %#x", ErrTrap, in.Op, in.Addr)
	}
	return nil
}

// alu computes the result and sets flags for add/sub/and/or/xor and the
// flag-only cmp/test.
func (m *Machine) alu(op x86.Op, a, b uint64, size uint8) uint64 {
	a = truncVal(a, size)
	b = truncVal(b, size)
	var res uint64
	switch op {
	case x86.OpAdd:
		res = truncVal(a+b, size)
		m.cf = res < a
		m.of = signBit(a, size) == signBit(b, size) && signBit(res, size) != signBit(a, size)
	case x86.OpSub, x86.OpCmp:
		res = truncVal(a-b, size)
		m.cf = a < b
		m.of = signBit(a, size) != signBit(b, size) && signBit(res, size) != signBit(a, size)
	case x86.OpAnd, x86.OpTest:
		res = a & b
		m.cf, m.of = false, false
	case x86.OpOr:
		res = a | b
		m.cf, m.of = false, false
	case x86.OpXor:
		res = a ^ b
		m.cf, m.of = false, false
	}
	m.setZFSF(res, size)
	return res
}

func (m *Machine) setZFSF(res uint64, size uint8) {
	m.zf = res == 0
	m.sf = signBit(res, size)
}

func signBit(v uint64, size uint8) bool {
	return v>>(8*uint(size)-1)&1 == 1
}

// signExtend extends the low size bytes of v by their sign.
func signExtend(v uint64, size uint8) uint64 {
	shift := 64 - 8*uint(size)
	return uint64(int64(v<<shift) >> shift)
}

func truncVal(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*uint(size)) - 1)
}

func (m *Machine) cond(c x86.Cond) bool {
	switch c {
	case x86.CondO:
		return m.of
	case x86.CondNO:
		return !m.of
	case x86.CondB:
		return m.cf
	case x86.CondAE:
		return !m.cf
	case x86.CondE:
		return m.zf
	case x86.CondNE:
		return !m.zf
	case x86.CondBE:
		return m.cf || m.zf
	case x86.CondA:
		return !m.cf && !m.zf
	case x86.CondS:
		return m.sf
	case x86.CondNS:
		return !m.sf
	case x86.CondL:
		return m.sf != m.of
	case x86.CondGE:
		return m.sf == m.of
	case x86.CondLE:
		return m.zf || m.sf != m.of
	case x86.CondG:
		return !m.zf && m.sf == m.of
	default:
		return false
	}
}

func (m *Machine) setReg(r x86.Reg, size uint8, v uint64) {
	if r.High() { // AH, CH, DH or BH: bits 8-15
		m.regs[r.Full()] = m.regs[r.Full()]&^uint64(0xFF00) | v&0xFF<<8
		return
	}
	if !r.Valid() {
		return
	}
	switch size {
	case 8:
		m.regs[r] = v
	case 4:
		m.regs[r] = v & 0xFFFFFFFF // 32-bit writes zero-extend
	case 2:
		m.regs[r] = m.regs[r]&^uint64(0xFFFF) | v&0xFFFF
	case 1:
		m.regs[r] = m.regs[r]&^uint64(0xFF) | v&0xFF
	}
}

// readOperand reads op, one of in's operands, at size bytes.
func (m *Machine) readOperand(in *x86.Inst, op x86.Operand, size uint8) (uint64, error) {
	switch op.Kind {
	case x86.KindImm:
		return truncVal(uint64(in.Imm), size), nil
	case x86.KindReg:
		if op.Reg.High() {
			return m.regs[op.Reg.Full()] >> 8 & 0xFF, nil
		}
		return truncVal(m.regs[op.Reg], size), nil
	case x86.KindMem:
		ea, err := m.effAddr(in, op)
		if err != nil {
			return 0, err
		}
		return m.read(ea, size)
	default:
		return 0, fmt.Errorf("%w: missing operand at %#x", ErrTrap, in.Addr)
	}
}

func (m *Machine) writeOperand(in *x86.Inst, op x86.Operand, v uint64) error {
	switch op.Kind {
	case x86.KindReg:
		m.setReg(op.Reg, in.OpSize, v)
		return nil
	case x86.KindMem:
		ea, err := m.effAddr(in, op)
		if err != nil {
			return err
		}
		return m.write(ea, in.OpSize, v)
	default:
		return fmt.Errorf("%w: bad destination at %#x", ErrTrap, in.Addr)
	}
}

// effAddr computes the effective address of op, one of in's memory
// operands.
func (m *Machine) effAddr(in *x86.Inst, op x86.Operand) (uint64, error) {
	if ea, ok := in.MemEA(op); ok {
		return ea, nil
	}
	var ea uint64
	if op.Reg != x86.RegNone {
		ea = m.regs[op.Reg]
	}
	if op.Index != x86.RegNone {
		ea += m.regs[op.Index] * uint64(op.Scale)
	}
	return ea + uint64(int64(in.Disp)), nil
}
