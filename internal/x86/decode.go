package x86

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode errors.
var (
	// ErrTruncated means the byte stream ended in the middle of an
	// instruction.
	ErrTruncated = errors.New("x86: truncated instruction")
	// ErrUnsupported means the bytes encode an instruction outside the
	// supported subset.
	ErrUnsupported = errors.New("x86: unsupported instruction")
)

// rex holds decoded REX prefix bits.
type rex struct {
	present    bool
	w, r, x, b bool
}

type cursor struct {
	b    []byte
	pos  int
	addr uint64
}

func (c *cursor) u8() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, ErrTruncated
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

// imm reads an n-byte little-endian immediate or displacement (n is 1,
// 2, 4 or 8), sign-extended.
func (c *cursor) imm(n uint8) (int64, error) {
	if c.pos+int(n) > len(c.b) {
		return 0, ErrTruncated
	}
	b := c.b[c.pos:]
	c.pos += int(n)
	switch n {
	case 1:
		return int64(int8(b[0])), nil
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(b))), nil
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b))), nil
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// target returns the absolute target of a relative branch whose
// displacement, rel, ends at the cursor.
func (c *cursor) target(rel int64) int64 { return int64(c.addr) + int64(c.pos) + rel }

// Decode decodes a single instruction starting at b[0], which is mapped
// at virtual address addr. It returns the decoded instruction; on error
// the returned instruction is zero-valued except Addr.
func Decode(b []byte, addr uint64) (Inst, error) {
	c := &cursor{b: b, addr: addr}
	inst := Inst{Addr: addr}

	var rx rex
	var opsize66, repF3 bool

	// Prefix loop.
	var op byte
	for {
		v, err := c.u8()
		if err != nil {
			return inst, err
		}
		switch {
		case v >= 0x40 && v <= 0x4F:
			rx = rex{present: true, w: v&8 != 0, r: v&4 != 0, x: v&2 != 0, b: v&1 != 0}
			continue
		case v == 0x66:
			opsize66 = true
			continue
		case v == 0xF3:
			repF3 = true
			continue
		case v == 0xF2, v == 0x2E, v == 0x3E, v == 0x26, v == 0x36, v == 0x64, v == 0x65, v == 0x67:
			// Ignored prefixes (segment overrides, addr-size, repne).
			continue
		}
		op = v
		break
	}

	size := uint8(4)
	if rx.w {
		size = 8
	} else if opsize66 {
		size = 2
	}
	inst.OpSize = size

	err := decodeOpcode(c, &inst, op, rx, size, repF3)
	if err == nil && size == 2 && (inst.Op == OpPush || inst.Op == OpPop) {
		// The 16-bit stack forms move RSP by 2; they are not modeled.
		err = fmt.Errorf("%w: 16-bit %v", ErrUnsupported, inst.Op)
	}
	if err != nil {
		return Inst{Addr: addr}, err
	}
	if c.pos > 15 {
		return Inst{Addr: addr}, fmt.Errorf("%w: length %d exceeds 15 bytes", ErrUnsupported, c.pos)
	}
	inst.Len = uint8(c.pos)
	return inst, nil
}

// aluOps maps the three-bit /digit of immediate group 1 to operations.
var grp1Ops = [8]Op{OpAdd, OpOr, OpInvalid, OpInvalid, OpAnd, OpSub, OpInvalid, OpCmp}

func decodeOpcode(c *cursor, inst *Inst, op byte, rx rex, size uint8, repF3 bool) error {
	switch {
	case op == 0x0F:
		return decode0F(c, inst, rx, size, repF3)

	// ALU r/m, r and r, r/m families.
	case op == 0x00, op == 0x01, op == 0x02, op == 0x03,
		op == 0x08, op == 0x09, op == 0x0A, op == 0x0B,
		op == 0x20, op == 0x21, op == 0x22, op == 0x23,
		op == 0x28, op == 0x29, op == 0x2A, op == 0x2B,
		op == 0x30, op == 0x31, op == 0x32, op == 0x33,
		op == 0x38, op == 0x39, op == 0x3A, op == 0x3B,
		op == 0x84, op == 0x85, // test r/m, r
		op == 0x88, op == 0x89, op == 0x8A, op == 0x8B:
		var kind Op
		switch op & 0xF8 {
		case 0x00:
			kind = OpAdd
		case 0x08:
			kind = OpOr
		case 0x20:
			kind = OpAnd
		case 0x28:
			kind = OpSub
		case 0x30:
			kind = OpXor
		case 0x38:
			kind = OpCmp
		case 0x80:
			kind = OpTest
		case 0x88:
			kind = OpMov
		}
		reg, rm, err := decodeModRM(c, inst, rx)
		if err != nil {
			return err
		}
		r := RegOp(reg)
		if op&1 == 0 { // byte form
			inst.OpSize = 1
			r, rm = rx.byteReg(r), rx.byteReg(rm)
		}
		inst.Op = kind
		if op&2 == 0 { // reg to r/m
			inst.Dst, inst.Src = rm, r
		} else {
			inst.Dst, inst.Src = r, rm
		}
		return nil

	case op >= 0x50 && op <= 0x57:
		inst.Op = OpPush
		inst.OpSize = 8
		inst.Dst = RegOp(regExt(op-0x50, rx.b))
		return nil

	case op >= 0x58 && op <= 0x5F:
		inst.Op = OpPop
		inst.OpSize = 8
		inst.Dst = RegOp(regExt(op-0x58, rx.b))
		return nil

	case op == 0x63: // movsxd r64, r/m32
		reg, rm, err := decodeModRM(c, inst, rx)
		if err != nil {
			return err
		}
		inst.Op = OpMovsxd
		inst.OpSize = 8
		inst.Dst, inst.Src = RegOp(reg), rm
		return nil

	case op == 0x68: // push imm32
		v, err := c.imm(4)
		if err != nil {
			return err
		}
		inst.Op = OpPush
		inst.OpSize = 8
		inst.Dst, inst.Imm = immOperand, v
		return nil

	case op == 0x6A: // push imm8
		v, err := c.imm(1)
		if err != nil {
			return err
		}
		inst.Op = OpPush
		inst.OpSize = 8
		inst.Dst, inst.Imm = immOperand, v
		return nil

	case op >= 0x70 && op <= 0x7F: // jcc rel8
		v, err := c.imm(1)
		if err != nil {
			return err
		}
		inst.Op = OpJcc
		inst.Cond = Cond(op - 0x70)
		inst.Dst, inst.Imm = immOperand, c.target(v)
		return nil

	case op == 0x80, op == 0x81, op == 0x83: // group 1 imm
		_, rm, digit, err := decodeModRMDigit(c, inst, rx)
		if err != nil {
			return err
		}
		kind := grp1Ops[digit]
		if kind == OpInvalid {
			return fmt.Errorf("%w: group1 /%d", ErrUnsupported, digit)
		}
		n := uint8(1)
		if op == 0x81 {
			n = min(size, 4) // imm16 or imm32, sign-extended to OpSize
		}
		imm, err := c.imm(n)
		if err != nil {
			return err
		}
		if op == 0x80 {
			inst.OpSize = 1
			rm = rx.byteReg(rm)
		}
		inst.Op = kind
		inst.Dst = rm
		inst.Src, inst.Imm = immOperand, imm
		return nil

	case op == 0x8D: // lea
		reg, rm, err := decodeModRM(c, inst, rx)
		if err != nil {
			return err
		}
		if rm.Kind != KindMem {
			return fmt.Errorf("%w: lea with register source", ErrUnsupported)
		}
		inst.Op = OpLea
		inst.Dst, inst.Src = RegOp(reg), rm
		return nil

	case op == 0x90:
		inst.Op = OpNop
		return nil

	case op == 0x98:
		inst.Op = OpCdqe
		return nil

	case op >= 0xB8 && op <= 0xBF: // mov r, imm16/imm32/imm64
		v, err := c.imm(size)
		if err != nil {
			return err
		}
		if size < 8 {
			// Keep the unsigned value: mov r32, imm32 zero-extends, and
			// mov r16, imm16 writes exactly the low 16 bits.
			v &= 1<<(8*size) - 1
		}
		inst.Op = OpMov
		inst.Dst = RegOp(regExt(op-0xB8, rx.b))
		inst.Src, inst.Imm = immOperand, v
		return nil

	case op == 0xC1: // group 2 shift imm8
		_, rm, digit, err := decodeModRMDigit(c, inst, rx)
		if err != nil {
			return err
		}
		v, err := c.imm(1)
		if err != nil {
			return err
		}
		switch digit {
		case 4:
			inst.Op = OpShl
		case 5:
			inst.Op = OpShr
		default:
			return fmt.Errorf("%w: group2 /%d", ErrUnsupported, digit)
		}
		inst.Dst = rm
		inst.Src, inst.Imm = immOperand, int64(uint8(v))
		return nil

	case op == 0xC3:
		inst.Op = OpRet
		return nil

	case op == 0xC6, op == 0xC7: // mov r/m, imm
		_, rm, digit, err := decodeModRMDigit(c, inst, rx)
		if err != nil {
			return err
		}
		if digit != 0 {
			return fmt.Errorf("%w: C6/C7 /%d", ErrUnsupported, digit)
		}
		n := min(size, 4) // imm16 or imm32, sign-extended to OpSize
		if op == 0xC6 {
			inst.OpSize = 1
			n = 1
			rm = rx.byteReg(rm)
		}
		imm, err := c.imm(n)
		if err != nil {
			return err
		}
		inst.Op = OpMov
		inst.Dst = rm
		inst.Src, inst.Imm = immOperand, imm
		return nil

	case op == 0xC9:
		inst.Op = OpLeave
		return nil

	case op == 0xCC:
		inst.Op = OpInt3
		return nil

	case op == 0xE8: // call rel32
		v, err := c.imm(4)
		if err != nil {
			return err
		}
		inst.Op = OpCall
		inst.Dst, inst.Imm = immOperand, c.target(v)
		return nil

	case op == 0xE9: // jmp rel32
		v, err := c.imm(4)
		if err != nil {
			return err
		}
		inst.Op = OpJmp
		inst.Dst, inst.Imm = immOperand, c.target(v)
		return nil

	case op == 0xEB: // jmp rel8
		v, err := c.imm(1)
		if err != nil {
			return err
		}
		inst.Op = OpJmp
		inst.Dst, inst.Imm = immOperand, c.target(v)
		return nil

	case op == 0xF4:
		inst.Op = OpHlt
		return nil

	case op == 0xFF: // group 5
		_, rm, digit, err := decodeModRMDigit(c, inst, rx)
		if err != nil {
			return err
		}
		switch digit {
		case 0:
			inst.Op = OpInc
			inst.Dst = rm
		case 1:
			inst.Op = OpDec
			inst.Dst = rm
		case 2:
			inst.Op = OpCallInd
			inst.OpSize = 8
			inst.Dst = rm
		case 4:
			inst.Op = OpJmpInd
			inst.OpSize = 8
			inst.Dst = rm
		case 6:
			inst.Op = OpPush
			inst.OpSize = 8
			inst.Dst = rm
		default:
			return fmt.Errorf("%w: group5 /%d", ErrUnsupported, digit)
		}
		return nil
	}
	return fmt.Errorf("%w: opcode %#02x", ErrUnsupported, op)
}

func decode0F(c *cursor, inst *Inst, rx rex, size uint8, repF3 bool) error {
	op, err := c.u8()
	if err != nil {
		return err
	}
	switch {
	case op == 0x05:
		inst.Op = OpSyscall
		return nil
	case op == 0x0B:
		inst.Op = OpUd2
		return nil
	case op == 0x1E && repF3:
		// endbr64 is F3 0F 1E FA.
		v, err := c.u8()
		if err != nil {
			return err
		}
		if v != 0xFA {
			return fmt.Errorf("%w: F3 0F 1E %#02x", ErrUnsupported, v)
		}
		inst.Op = OpEndbr64
		return nil
	case op == 0x1F: // multi-byte nop
		_, _, _, err := decodeModRMDigit(c, inst, rx)
		if err != nil {
			return err
		}
		inst.Op = OpNop
		return nil
	case op >= 0x80 && op <= 0x8F: // jcc rel32
		v, err := c.imm(4)
		if err != nil {
			return err
		}
		inst.Op = OpJcc
		inst.Cond = Cond(op - 0x80)
		inst.Dst, inst.Imm = immOperand, c.target(v)
		return nil
	case op == 0xB6, op == 0xB7, op == 0xBE, op == 0xBF: // movzx, movsx
		reg, rm, err := decodeModRM(c, inst, rx)
		if err != nil {
			return err
		}
		// Opcode bit 3 picks sign extension, bit 0 a word source.
		inst.Op = [...]Op{OpMovzxB, OpMovzxW, OpMovsxB, OpMovsxW}[(op>>2)&2|op&1]
		if op&1 == 0 { // byte source
			rm = rx.byteReg(rm)
		}
		inst.Dst, inst.Src = RegOp(reg), rm
		return nil
	}
	return fmt.Errorf("%w: opcode 0f %#02x", ErrUnsupported, op)
}

// byteReg returns o as a 1-byte operand: without a REX prefix,
// register codes 4-7 name AH, CH, DH and BH rather than the low bytes
// of RSP, RBP, RSI and RDI.
func (rx rex) byteReg(o Operand) Operand {
	if o.Kind == KindReg && !rx.present && o.Reg >= RSP && o.Reg <= RDI {
		o.Reg += AH - RSP
	}
	return o
}

func regExt(low byte, ext bool) Reg {
	r := Reg(low & 7)
	if ext {
		r += 8
	}
	return r
}

// immOperand is the operand of an instruction's immediate (or a direct
// branch's target), whose value is Inst.Imm.
var immOperand = Operand{Kind: KindImm}

// decodeModRM decodes a ModRM byte (plus SIB/displacement) and returns
// the reg field as a register and the r/m field as an operand. A memory
// r/m operand's displacement goes to inst.Disp.
func decodeModRM(c *cursor, inst *Inst, rx rex) (Reg, Operand, error) {
	reg, rm, _, err := decodeModRMDigit(c, inst, rx)
	return reg, rm, err
}

// decodeModRMDigit is decodeModRM but also exposes the raw reg field
// value (the "/digit" of group opcodes).
func decodeModRMDigit(c *cursor, inst *Inst, rx rex) (Reg, Operand, byte, error) {
	modrm, err := c.u8()
	if err != nil {
		return 0, Operand{}, 0, err
	}
	mod := modrm >> 6
	regField := (modrm >> 3) & 7
	rmField := modrm & 7
	reg := regExt(regField, rx.r)

	if mod == 3 {
		return reg, RegOp(regExt(rmField, rx.b)), regField, nil
	}

	m := Operand{Kind: KindMem, Reg: RegNone, Index: RegNone, Scale: 1}

	if rmField == 4 { // SIB follows
		sib, err := c.u8()
		if err != nil {
			return 0, Operand{}, 0, err
		}
		scaleBits := sib >> 6
		indexField := (sib >> 3) & 7
		baseField := sib & 7
		if idx := regExt(indexField, rx.x); idx != RSP { // index=100 without REX.X means "no index"
			m.Index = idx
			m.Scale = 1 << scaleBits
		}
		if baseField == 5 && mod == 0 {
			// disp32 with no base
			d, err := c.imm(4)
			if err != nil {
				return 0, Operand{}, 0, err
			}
			inst.Disp = int32(d)
			return reg, m, regField, nil
		}
		m.Reg = regExt(baseField, rx.b)
	} else if rmField == 5 && mod == 0 {
		// RIP-relative disp32
		d, err := c.imm(4)
		if err != nil {
			return 0, Operand{}, 0, err
		}
		m.Reg = RIP
		inst.Disp = int32(d)
		return reg, m, regField, nil
	} else {
		m.Reg = regExt(rmField, rx.b)
	}

	switch mod {
	case 1:
		d, err := c.imm(1)
		if err != nil {
			return 0, Operand{}, 0, err
		}
		inst.Disp = int32(d)
	case 2:
		d, err := c.imm(4)
		if err != nil {
			return 0, Operand{}, 0, err
		}
		inst.Disp = int32(d)
	}
	return reg, m, regField, nil
}
