// Package asm provides a small two-pass x86-64 assembler used to
// synthesize the machine code analyzed and executed by this repository.
// It emits exactly the encodings understood by internal/x86's decoder;
// the two packages are validated against each other with round-trip
// property tests.
package asm

import (
	"encoding/binary"
	"fmt"

	"bside/internal/x86"
)

// fixupKind distinguishes relocation styles.
type fixupKind uint8

const (
	fixRel32 fixupKind = iota // rel32 branch / RIP-relative displacement
	fixAbs64                  // absolute 8-byte address (data quads)
)

type fixup struct {
	kind  fixupKind
	off   int // offset of the 4- or 8-byte field within the image
	end   int // offset of the end of the instruction (rel32 anchor)
	label string
}

// Builder assembles a single contiguous image (code followed by any data
// the caller emits). The zero value is ready to use.
type Builder struct {
	buf    []byte
	labels map[string]int
	fixups []fixup
	funcs  []string
	err    error
}

// New returns an empty Builder.
func New() *Builder {
	return &Builder{labels: make(map[string]int)}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error recorded while building, if any.
func (b *Builder) Err() error { return b.err }

// Label defines name at the current offset.
func (b *Builder) Label(name string) {
	if b.labels == nil {
		b.labels = make(map[string]int)
	}
	if _, dup := b.labels[name]; dup {
		b.fail("asm: duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.buf)
}

// Func defines name at the current offset like Label and additionally
// records it as a function symbol. Callers that build symbol tables use
// FuncNames to emit only function symbols, matching how real symtabs
// carry STT_FUNC entries but not local branch labels.
func (b *Builder) Func(name string) {
	b.Label(name)
	b.funcs = append(b.funcs, name)
}

// FuncNames returns the labels declared with Func, in declaration order.
func (b *Builder) FuncNames() []string {
	return append([]string(nil), b.funcs...)
}

// Raw appends raw bytes.
func (b *Builder) Raw(bytes ...byte) { b.buf = append(b.buf, bytes...) }

// Align pads with zero bytes to the given alignment.
func (b *Builder) Align(n int) {
	for len(b.buf)%n != 0 {
		b.buf = append(b.buf, 0)
	}
}

// Quad emits an 8-byte little-endian literal (data).
func (b *Builder) Quad(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.buf = append(b.buf, tmp[:]...)
}

// QuadLabel emits an 8-byte slot holding the absolute address of label.
func (b *Builder) QuadLabel(label string) {
	b.fixups = append(b.fixups, fixup{kind: fixAbs64, off: len(b.buf), label: label})
	b.Quad(0)
}

// Finalize resolves all label references assuming the image is loaded at
// base, and returns the image plus the symbol table (label -> absolute
// virtual address).
func (b *Builder) Finalize(base uint64) ([]byte, map[string]uint64, error) {
	if b.err != nil {
		return nil, nil, b.err
	}
	for _, f := range b.fixups {
		off, ok := b.labels[f.label]
		if !ok {
			return nil, nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		switch f.kind {
		case fixRel32:
			rel := int64(off) - int64(f.end)
			if rel > 0x7FFFFFFF || rel < -0x80000000 {
				return nil, nil, fmt.Errorf("asm: rel32 overflow to %q", f.label)
			}
			binary.LittleEndian.PutUint32(b.buf[f.off:], uint32(int32(rel)))
		case fixAbs64:
			binary.LittleEndian.PutUint64(b.buf[f.off:], base+uint64(off))
		}
	}
	syms := make(map[string]uint64, len(b.labels))
	for name, off := range b.labels {
		syms[name] = base + uint64(off)
	}
	return b.buf, syms, nil
}

// --- encoding helpers ---------------------------------------------------

const (
	rexBase = 0x40
	rexW    = 0x08
	rexR    = 0x04
	rexX    = 0x02
	rexB    = 0x01
)

// emitRM writes [REX] opcode ModRM(+SIB,+disp) for a reg-field value and
// an r/m operand that is a register. w selects REX.W.
func (b *Builder) emitRMReg(opcode byte, regField byte, rm x86.Reg, w bool) {
	rex := byte(rexBase)
	if w {
		rex |= rexW
	}
	if regField >= 8 {
		rex |= rexR
	}
	if rm >= 8 {
		rex |= rexB
	}
	if rex != rexBase || w {
		b.buf = append(b.buf, rex)
	}
	b.buf = append(b.buf, opcode, 0xC0|(regField&7)<<3|byte(rm)&7)
}

// emitRMMem writes [REX] opcode ModRM+SIB+disp for a memory r/m operand.
// If ripLabel is non-empty the operand is RIP-relative to that label and
// a fixup is recorded (m is ignored except for validation).
func (b *Builder) emitRMMem(opcode byte, regField byte, m x86.Mem, w bool, ripLabel string) {
	rex := byte(rexBase)
	if w {
		rex |= rexW
	}
	if regField >= 8 {
		rex |= rexR
	}
	if ripLabel == "" {
		if m.Base != x86.RegNone && m.Base != x86.RIP && m.Base >= 8 {
			rex |= rexB
		}
		if m.Index != x86.RegNone && m.Index >= 8 {
			rex |= rexX
		}
	}
	if rex != rexBase || w {
		b.buf = append(b.buf, rex)
	}
	b.buf = append(b.buf, opcode)

	if ripLabel != "" || m.Base == x86.RIP {
		// mod=00 rm=101 disp32 (RIP-relative)
		b.buf = append(b.buf, 0x00|(regField&7)<<3|0x05)
		if ripLabel != "" {
			b.fixups = append(b.fixups, fixup{kind: fixRel32, off: len(b.buf), end: len(b.buf) + 4, label: ripLabel})
			b.buf = append(b.buf, 0, 0, 0, 0)
		} else {
			var tmp [4]byte
			binary.LittleEndian.PutUint32(tmp[:], uint32(m.Disp))
			b.buf = append(b.buf, tmp[:]...)
		}
		return
	}

	needSIB := m.Index != x86.RegNone || m.Base == x86.RSP || m.Base == x86.R12 || m.Base == x86.RegNone
	baseLow := byte(0)
	if m.Base != x86.RegNone {
		baseLow = byte(m.Base) & 7
	}

	// Choose mod / displacement width.
	var mod byte
	switch {
	case m.Base == x86.RegNone:
		mod = 0 // disp32, SIB base=101
	case m.Disp == 0 && baseLow != 5: // rbp/r13 require an explicit disp
		mod = 0
	case m.Disp >= -128 && m.Disp <= 127:
		mod = 1
	default:
		mod = 2
	}

	if needSIB {
		b.buf = append(b.buf, mod<<6|(regField&7)<<3|0x04)
		scaleBits := byte(0)
		switch m.Scale {
		case 0, 1:
			scaleBits = 0
		case 2:
			scaleBits = 1
		case 4:
			scaleBits = 2
		case 8:
			scaleBits = 3
		default:
			b.fail("asm: bad scale %d", m.Scale)
		}
		idx := byte(4) // none
		if m.Index != x86.RegNone {
			if m.Index == x86.RSP {
				b.fail("asm: rsp cannot be an index register")
			}
			idx = byte(m.Index) & 7
		}
		base := byte(5)
		if m.Base != x86.RegNone {
			base = baseLow
		} else {
			mod = 0 // force disp32-no-base form
		}
		b.buf = append(b.buf, scaleBits<<6|idx<<3|base)
		if m.Base == x86.RegNone {
			var tmp [4]byte
			binary.LittleEndian.PutUint32(tmp[:], uint32(m.Disp))
			b.buf = append(b.buf, tmp[:]...)
			return
		}
	} else {
		b.buf = append(b.buf, mod<<6|(regField&7)<<3|baseLow)
	}

	switch mod {
	case 1:
		b.buf = append(b.buf, byte(int8(m.Disp)))
	case 2:
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], uint32(m.Disp))
		b.buf = append(b.buf, tmp[:]...)
	}
}

func (b *Builder) imm32(v int32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(v))
	b.buf = append(b.buf, tmp[:]...)
}

// --- data movement -------------------------------------------------------

// MovRegImm32 emits mov r32, imm32 (zero-extending into the 64-bit reg).
func (b *Builder) MovRegImm32(dst x86.Reg, imm uint32) {
	if dst >= 8 {
		b.buf = append(b.buf, rexBase|rexB)
	}
	b.buf = append(b.buf, 0xB8+byte(dst)&7)
	b.imm32(int32(imm))
}

// MovRegImm64 emits movabs r64, imm64.
func (b *Builder) MovRegImm64(dst x86.Reg, imm uint64) {
	rex := byte(rexBase | rexW)
	if dst >= 8 {
		rex |= rexB
	}
	b.buf = append(b.buf, rex, 0xB8+byte(dst)&7)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], imm)
	b.buf = append(b.buf, tmp[:]...)
}

// MovRegReg emits mov r64, r64.
func (b *Builder) MovRegReg(dst, src x86.Reg) { b.emitRMReg(0x89, byte(src), dst, true) }

// MovRegMem emits mov r64, [mem].
func (b *Builder) MovRegMem(dst x86.Reg, m x86.Mem) { b.emitRMMem(0x8B, byte(dst), m, true, "") }

// MovMemReg emits mov [mem], r64.
func (b *Builder) MovMemReg(m x86.Mem, src x86.Reg) { b.emitRMMem(0x89, byte(src), m, true, "") }

// MovMemImm32 emits mov qword [mem], imm32 (sign-extended).
func (b *Builder) MovMemImm32(m x86.Mem, imm int32) {
	b.emitRMMem(0xC7, 0, m, true, "")
	b.imm32(imm)
}

// MovRegMemRIP emits mov r64, [rip+label].
func (b *Builder) MovRegMemRIP(dst x86.Reg, label string) {
	b.emitRMMem(0x8B, byte(dst), x86.Mem{}, true, label)
}

// Lea emits lea r64, [rip+label].
func (b *Builder) Lea(dst x86.Reg, label string) {
	b.emitRMMem(0x8D, byte(dst), x86.Mem{}, true, label)
}

// --- ALU -----------------------------------------------------------------

func (b *Builder) grp1Imm(digit byte, r x86.Reg, imm int32) {
	if imm >= -128 && imm <= 127 {
		b.emitRMReg(0x83, digit, r, true)
		b.buf = append(b.buf, byte(int8(imm)))
		return
	}
	b.emitRMReg(0x81, digit, r, true)
	b.imm32(imm)
}

// AddRegImm emits add r64, imm.
func (b *Builder) AddRegImm(r x86.Reg, imm int32) { b.grp1Imm(0, r, imm) }

// OrRegImm emits or r64, imm.
func (b *Builder) OrRegImm(r x86.Reg, imm int32) { b.grp1Imm(1, r, imm) }

// AndRegImm emits and r64, imm.
func (b *Builder) AndRegImm(r x86.Reg, imm int32) { b.grp1Imm(4, r, imm) }

// SubRegImm emits sub r64, imm.
func (b *Builder) SubRegImm(r x86.Reg, imm int32) { b.grp1Imm(5, r, imm) }

// CmpRegImm emits cmp r64, imm.
func (b *Builder) CmpRegImm(r x86.Reg, imm int32) { b.grp1Imm(7, r, imm) }

// AddRegReg emits add r64, r64.
func (b *Builder) AddRegReg(dst, src x86.Reg) { b.emitRMReg(0x01, byte(src), dst, true) }

// SubRegReg emits sub r64, r64.
func (b *Builder) SubRegReg(dst, src x86.Reg) { b.emitRMReg(0x29, byte(src), dst, true) }

// XorRegReg emits xor r64, r64.
func (b *Builder) XorRegReg(dst, src x86.Reg) { b.emitRMReg(0x31, byte(src), dst, true) }

// XorRegReg32 emits xor r32, r32 (the common zeroing idiom).
func (b *Builder) XorRegReg32(dst, src x86.Reg) { b.emitRMReg(0x31, byte(src), dst, false) }

// TestRegReg emits test r64, r64.
func (b *Builder) TestRegReg(a, r x86.Reg) { b.emitRMReg(0x85, byte(r), a, true) }

// CmpRegReg emits cmp r64, r64.
func (b *Builder) CmpRegReg(a, r x86.Reg) { b.emitRMReg(0x39, byte(r), a, true) }

// CmpMemImm is not supported by the subset; compare via a register.

// ShlRegImm emits shl r64, imm8.
func (b *Builder) ShlRegImm(r x86.Reg, n uint8) {
	b.emitRMReg(0xC1, 4, r, true)
	b.buf = append(b.buf, n)
}

// ShrRegImm emits shr r64, imm8.
func (b *Builder) ShrRegImm(r x86.Reg, n uint8) {
	b.emitRMReg(0xC1, 5, r, true)
	b.buf = append(b.buf, n)
}

// IncReg emits inc r64.
func (b *Builder) IncReg(r x86.Reg) { b.emitRMReg(0xFF, 0, r, true) }

// DecReg emits dec r64.
func (b *Builder) DecReg(r x86.Reg) { b.emitRMReg(0xFF, 1, r, true) }

// --- stack ----------------------------------------------------------------

// Push emits push r64.
func (b *Builder) Push(r x86.Reg) {
	if r >= 8 {
		b.buf = append(b.buf, rexBase|rexB)
	}
	b.buf = append(b.buf, 0x50+byte(r)&7)
}

// Pop emits pop r64.
func (b *Builder) Pop(r x86.Reg) {
	if r >= 8 {
		b.buf = append(b.buf, rexBase|rexB)
	}
	b.buf = append(b.buf, 0x58+byte(r)&7)
}

// PushImm32 emits push imm32.
func (b *Builder) PushImm32(v int32) {
	b.buf = append(b.buf, 0x68)
	b.imm32(v)
}

// --- control flow ----------------------------------------------------------

func (b *Builder) rel32To(label string) {
	b.fixups = append(b.fixups, fixup{kind: fixRel32, off: len(b.buf), end: len(b.buf) + 4, label: label})
	b.buf = append(b.buf, 0, 0, 0, 0)
}

// CallLabel emits call rel32 to label.
func (b *Builder) CallLabel(label string) {
	b.buf = append(b.buf, 0xE8)
	b.rel32To(label)
}

// CallReg emits call r64.
func (b *Builder) CallReg(r x86.Reg) { b.emitRMReg(0xFF, 2, r, false) }

// CallMemRIP emits call qword [rip+label] (PLT-style import call).
func (b *Builder) CallMemRIP(label string) { b.emitRMMem(0xFF, 2, x86.Mem{}, false, label) }

// JmpLabel emits jmp rel32 to label.
func (b *Builder) JmpLabel(label string) {
	b.buf = append(b.buf, 0xE9)
	b.rel32To(label)
}

// JmpReg emits jmp r64.
func (b *Builder) JmpReg(r x86.Reg) { b.emitRMReg(0xFF, 4, r, false) }

// JmpMemRIP emits jmp qword [rip+label] (import stub tail jump).
func (b *Builder) JmpMemRIP(label string) { b.emitRMMem(0xFF, 4, x86.Mem{}, false, label) }

// Jcc emits a conditional rel32 jump to label.
func (b *Builder) Jcc(c x86.Cond, label string) {
	b.buf = append(b.buf, 0x0F, 0x80+byte(c))
	b.rel32To(label)
}

// --- misc -------------------------------------------------------------------

// Ret emits ret.
func (b *Builder) Ret() { b.buf = append(b.buf, 0xC3) }

// Leave emits leave.
func (b *Builder) Leave() { b.buf = append(b.buf, 0xC9) }

// Syscall emits syscall.
func (b *Builder) Syscall() { b.buf = append(b.buf, 0x0F, 0x05) }

// Nop emits nop.
func (b *Builder) Nop() { b.buf = append(b.buf, 0x90) }

// Endbr64 emits endbr64.
func (b *Builder) Endbr64() { b.buf = append(b.buf, 0xF3, 0x0F, 0x1E, 0xFA) }

// Ud2 emits ud2.
func (b *Builder) Ud2() { b.buf = append(b.buf, 0x0F, 0x0B) }

// Int3 emits int3.
func (b *Builder) Int3() { b.buf = append(b.buf, 0xCC) }

// Hlt emits hlt.
func (b *Builder) Hlt() { b.buf = append(b.buf, 0xF4) }
