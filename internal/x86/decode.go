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

// cursor reads one instruction's bytes. A read past the end returns
// zero, and the first fault, that read or bytes outside the subset,
// sticks in err while later ones are dropped: the decoder runs to the
// end, checks err once, and reports the first fault in byte order.
type cursor struct {
	b    []byte
	pos  int
	addr uint64
	err  error
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *cursor) u8() byte {
	if c.pos >= len(c.b) {
		c.fail(ErrTruncated)
		return 0
	}
	v := c.b[c.pos]
	c.pos++
	return v
}

// imm reads an n-byte little-endian immediate or displacement (n is 1,
// 2, 4 or 8), sign-extended.
func (c *cursor) imm(n uint8) int64 {
	if c.pos+int(n) > len(c.b) {
		c.fail(ErrTruncated)
		return 0
	}
	b := c.b[c.pos:]
	c.pos += int(n)
	switch n {
	case 1:
		return int64(int8(b[0]))
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(b)))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b)))
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// target returns the absolute target of a relative branch whose
// displacement, rel, ends at the cursor.
func (c *cursor) target(rel int64) int64 { return int64(c.addr) + int64(c.pos) + rel }

// form says what follows an opcode and where its operands go. The
// forms from skip on read a ModRM byte.
type form uint8

const (
	bare  form = iota // no operands, or the immediate alone
	inOp              // the register in the opcode's low three bits
	rel               // the immediate is a branch displacement
	skip              // a ModRM, read and dropped
	rmReg             // ModRM: r/m, reg; opcode bit 1 swaps them, bit 0 clear is the byte form
	regRM             // ModRM: reg, r/m
	group             // ModRM: r/m; the reg field (the /digit) picks the operation
)

// Immediate sizes beyond a plain byte count.
const (
	immZ = 0x10 + iota // imm16 under a 66 prefix, else imm32; sign-extended
	immV               // the operand size: imm16, imm32 or imm64
)

// row describes one opcode: its operation, or for a group row the
// operations its /digit picks (OpInvalid digits are unsupported), the
// operand form, the immediate's size in bytes (0 for none), which
// follows any ModRM and fills the first free operand, and a fixed
// operand size (0 keeps the prefixes' size).
type row struct {
	op   Op
	grp  *[8]Op
	form form
	imm  uint8
	size uint8
}

// The /digit groups: immediate group 1 without adc, sbb and xor, the
// shifts of group 2, group 11's mov, and group 5.
var (
	grp1  = [8]Op{OpAdd, OpOr, 4: OpAnd, OpSub, 7: OpCmp}
	grp2  = [8]Op{4: OpShl, OpShr}
	grp11 = [8]Op{OpMov}
	grp5  = [8]Op{OpInc, OpDec, OpCallInd, 4: OpJmpInd, 6: OpPush}
)

// oneByte and twoByte are the one-byte and 0F opcode maps: one row per
// supported opcode, a zero row for every other.
var oneByte, twoByte = opcodeMaps()

func opcodeMaps() (one, two [256]row) {
	fill := func(m *[256]row, lo, hi byte, r row) {
		for op := int(lo); op <= int(hi); op++ {
			m[op] = r
		}
	}
	// The ALU block 00–3F: an operation every 8 opcodes, adc and sbb
	// unsupported.
	for i, op := range [8]Op{OpAdd, OpOr, 4: OpAnd, OpSub, OpXor, OpCmp} {
		if op != OpInvalid {
			fill(&one, byte(8*i), byte(8*i+3), row{op: op, form: rmReg})
		}
	}
	fill(&one, 0x50, 0x57, row{op: OpPush, form: inOp})
	fill(&one, 0x58, 0x5F, row{op: OpPop, form: inOp})
	one[0x63] = row{op: OpMovsxd, form: regRM, size: 8}
	one[0x68] = row{op: OpPush, imm: 4}
	one[0x6A] = row{op: OpPush, imm: 1}
	fill(&one, 0x70, 0x7F, row{op: OpJcc, form: rel, imm: 1})
	one[0x80] = row{grp: &grp1, form: group, imm: 1, size: 1}
	one[0x81] = row{grp: &grp1, form: group, imm: immZ}
	one[0x83] = row{grp: &grp1, form: group, imm: 1}
	fill(&one, 0x84, 0x85, row{op: OpTest, form: rmReg})
	fill(&one, 0x88, 0x8B, row{op: OpMov, form: rmReg})
	one[0x8D] = row{op: OpLea, form: regRM}
	one[0x90] = row{op: OpNop}
	one[0x98] = row{op: OpCdqe}
	fill(&one, 0xB8, 0xBF, row{op: OpMov, form: inOp, imm: immV})
	one[0xC1] = row{grp: &grp2, form: group, imm: 1}
	one[0xC3] = row{op: OpRet}
	one[0xC6] = row{grp: &grp11, form: group, imm: 1, size: 1}
	one[0xC7] = row{grp: &grp11, form: group, imm: immZ}
	one[0xC9] = row{op: OpLeave}
	one[0xCC] = row{op: OpInt3}
	one[0xE8] = row{op: OpCall, form: rel, imm: 4}
	one[0xE9] = row{op: OpJmp, form: rel, imm: 4}
	one[0xEB] = row{op: OpJmp, form: rel, imm: 1}
	one[0xF4] = row{op: OpHlt}
	one[0xFF] = row{grp: &grp5, form: group}

	two[0x05] = row{op: OpSyscall}
	two[0x0B] = row{op: OpUd2}
	two[0x1F] = row{op: OpNop, form: skip}
	fill(&two, 0x80, 0x8F, row{op: OpJcc, form: rel, imm: 4})
	two[0xB6] = row{op: OpMovzxB, form: regRM}
	two[0xB7] = row{op: OpMovzxW, form: regRM}
	two[0xBE] = row{op: OpMovsxB, form: regRM}
	two[0xBF] = row{op: OpMovsxW, form: regRM}
	return one, two
}

// Decode decodes a single instruction starting at b[0], which is mapped
// at virtual address addr, into *inst, overwriting every field; on
// error *inst is zero-valued except Addr. Callers decode straight into
// the slot that keeps the instruction, so it is never copied out.
func Decode(inst *Inst, b []byte, addr uint64) error {
	c := cursor{b: b, addr: addr}
	var rx rex
	var opsize66, repF3 bool
	op := c.u8()
prefixes:
	for ; ; op = c.u8() {
		switch {
		case op&0xF0 == 0x40:
			rx = rex{present: true, w: op&8 != 0, r: op&4 != 0, x: op&2 != 0, b: op&1 != 0}
			continue
		case op == 0x66:
			opsize66 = true
		case op == 0xF3:
			repF3 = true
		case op == 0xF2, op == 0x2E, op == 0x3E, op == 0x26, op == 0x36, op == 0x64, op == 0x65, op == 0x67:
			// Ignored prefixes (segment overrides, addr-size, repne).
		default:
			break prefixes
		}
		// A REX prefix counts only right before the opcode (or 0F): a
		// later legacy prefix voids it, as the CPU and objdump agree.
		rx = rex{}
	}

	size := uint8(4)
	if rx.w {
		size = 8
	} else if opsize66 {
		size = 2
	}
	r := oneByte[op]
	if op == 0x0F {
		op = c.u8()
		r = twoByte[op]
		if op == 0x1E && repF3 && c.u8() == 0xFA { // endbr64 is F3 0F 1E FA
			r = row{op: OpEndbr64}
		}
	}

	*inst = Inst{Addr: addr, Op: r.op, OpSize: size}
	if r.size != 0 {
		inst.OpSize = r.size
	}
	var reg Reg
	var rm Operand
	var digit byte
	if r.form >= skip {
		reg, rm, digit = c.modRM(inst, rx)
	}
	switch r.form {
	case inOp:
		inst.Dst = RegOp(regExt(op, rx.b))
	case rmReg:
		inst.Dst, inst.Src = rm, RegOp(reg)
		if op&2 != 0 {
			inst.Dst, inst.Src = inst.Src, inst.Dst
		}
		if op&1 == 0 {
			inst.OpSize = 1
		}
	case regRM:
		inst.Dst, inst.Src = RegOp(reg), rm
	case group:
		inst.Op, inst.Dst = r.grp[digit], rm
	}
	if inst.Op == OpInvalid {
		c.fail(fmt.Errorf("%w: % x", ErrUnsupported, c.b[:c.pos]))
	}

	if n := r.imm; n != 0 {
		switch n {
		case immZ:
			n = min(size, 4)
		case immV:
			n = size
		}
		v := c.imm(n)
		if r.imm == immV && size < 8 {
			// Keep the unsigned value: mov r32, imm32 zero-extends, and
			// mov r16, imm16 writes exactly the low 16 bits.
			v &= 1<<(8*size) - 1
		}
		if r.form == rel {
			v = c.target(v)
		}
		inst.Imm = v
		if inst.Dst.Kind == KindNone {
			inst.Dst = immOperand
		} else {
			inst.Src = immOperand
		}
	}

	switch inst.Op {
	case OpJcc:
		inst.Cond = Cond(op & 0xF)
	case OpShl, OpShr:
		inst.Imm = int64(uint8(inst.Imm)) // the count is an unsigned byte
	case OpLea:
		if inst.Src.Kind != KindMem {
			c.fail(fmt.Errorf("%w: lea with register source", ErrUnsupported))
		}
	case OpPush, OpPop:
		if size == 2 {
			// The 16-bit stack forms move RSP by 2; they are not modeled.
			c.fail(fmt.Errorf("%w: 16-bit %v", ErrUnsupported, inst.Op))
		}
		inst.OpSize = 8
	case OpCallInd, OpJmpInd:
		inst.OpSize = 8
	}
	if inst.OpSize == 1 {
		inst.Dst = rx.byteReg(inst.Dst)
	}
	if inst.SrcSize() == 1 {
		inst.Src = rx.byteReg(inst.Src)
	}

	if c.pos > 15 {
		c.fail(fmt.Errorf("%w: length %d exceeds 15 bytes", ErrUnsupported, c.pos))
	}
	if c.err != nil {
		*inst = Inst{Addr: addr}
		return c.err
	}
	inst.Len = uint8(c.pos)
	return nil
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

// modRM decodes a ModRM byte (plus SIB/displacement) and returns the
// reg field as a register, the r/m field as an operand, and the raw
// reg field (the /digit of a group). A memory r/m operand's
// displacement goes to inst.Disp.
func (c *cursor) modRM(inst *Inst, rx rex) (Reg, Operand, byte) {
	modrm := c.u8()
	mod, digit, rmField := modrm>>6, modrm>>3&7, modrm&7
	reg := regExt(digit, rx.r)
	if mod == 3 {
		return reg, RegOp(regExt(rmField, rx.b)), digit
	}

	m := Operand{Kind: KindMem, Reg: RegNone, Index: RegNone, Scale: 1}
	switch {
	case rmField == 4: // SIB follows
		sib := c.u8()
		if idx := regExt(sib>>3, rx.x); idx != RSP { // index=100 without REX.X means "no index"
			m.Index = idx
			m.Scale = 1 << (sib >> 6)
		}
		if sib&7 == 5 && mod == 0 {
			// disp32 with no base
			inst.Disp = int32(c.imm(4))
			return reg, m, digit
		}
		m.Reg = regExt(sib, rx.b)
	case rmField == 5 && mod == 0:
		// RIP-relative disp32
		m.Reg = RIP
		inst.Disp = int32(c.imm(4))
		return reg, m, digit
	default:
		m.Reg = regExt(rmField, rx.b)
	}

	switch mod {
	case 1:
		inst.Disp = int32(c.imm(1))
	case 2:
		inst.Disp = int32(c.imm(4))
	}
	return reg, m, digit
}
