// Package x86 implements a decoder for the subset of the x86-64
// instruction set that matters for static system-call identification:
// data movement, address formation, integer ALU operations, stack
// manipulation, control flow, and the syscall instruction itself.
//
// The decoder understands REX prefixes, ModRM/SIB addressing and
// RIP-relative operands, which is sufficient to disassemble the machine
// code produced by compilers around system call sites as well as the
// binaries synthesized by the corpus generator in this repository.
//
// An Inst also says what it does (EndsBlock, FallsThrough, Writes, and
// Fold for its arithmetic), so every analysis layer reads one answer.
package x86

import "fmt"

// Reg identifies an x86-64 general-purpose register. The numeric values
// 0-15 follow the hardware encoding (RAX=0 ... R15=15) so that ModRM
// register fields map directly onto Reg values.
type Reg uint8

// General purpose registers in hardware encoding order.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// RIP is a pseudo-register used to mark RIP-relative memory
	// operands. It never appears as a direct register operand.
	RIP

	// RegNone marks an absent base or index register in a memory
	// operand.
	RegNone Reg = 0xFF
)

// AH, CH, DH and BH are bits 8-15 of RAX, RCX, RDX and RBX: what
// byte-register codes 4-7 name in an instruction without a REX prefix.
// They occur only as 1-byte register operands; Full maps each to its
// 64-bit register.
const (
	AH Reg = 0x14 + iota
	CH
	DH
	BH
)

// NumGPR is the number of addressable general-purpose registers.
const NumGPR = 16

// gprNames holds the general-purpose registers' names at 1, 2, 4 and 8
// bytes.
var gprNames = [4][NumGPR]string{
	{"al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil", "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b"},
	{"ax", "cx", "dx", "bx", "sp", "bp", "si", "di", "r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w"},
	{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"},
	{"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"},
}

// String returns the conventional 64-bit name of the register, or the
// byte name of AH, CH, DH and BH.
func (r Reg) String() string { return r.Name(8) }

// Name returns the register's name at width size bytes: al, ax, eax or
// rax, and r8b, r8w, r8d or r8 (spl to dil are the low bytes of RSP to
// RDI). A size other than 1, 2 or 4 reads the 64-bit name; RIP and AH
// to BH have one name whatever the size.
func (r Reg) Name(size uint8) string {
	switch {
	case r.Valid():
		switch size {
		case 1:
			return gprNames[0][r]
		case 2:
			return gprNames[1][r]
		case 4:
			return gprNames[2][r]
		}
		return gprNames[3][r]
	case r == RIP:
		return "rip"
	case r.High():
		return [...]string{"ah", "ch", "dh", "bh"}[r-AH]
	case r == RegNone:
		return "none"
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Valid reports whether r names one of the 16 general-purpose registers.
func (r Reg) Valid() bool { return r < NumGPR }

// High reports whether r is AH, CH, DH or BH.
func (r Reg) High() bool { return r >= AH && r <= BH }

// Full returns the 64-bit register r is part of: RAX for AH, CH's RCX,
// and so on; every other register is its own.
func (r Reg) Full() Reg {
	if r.High() {
		return r - AH + RAX
	}
	return r
}

// RegSet is a set of general-purpose registers, one bit per 64-bit
// register.
type RegSet uint16

// CallerSaved holds the registers the System V AMD64 ABI lets a called
// function clobber.
const CallerSaved = RegSet(1<<RAX | 1<<RCX | 1<<RDX | 1<<RSI | 1<<RDI |
	1<<R8 | 1<<R9 | 1<<R10 | 1<<R11)

// RegSetOf returns the set holding r's 64-bit register, or the empty
// set for RIP and RegNone.
func RegSetOf(r Reg) RegSet {
	if r = r.Full(); !r.Valid() {
		return 0
	}
	return 1 << r
}

// Has reports whether s holds r's 64-bit register.
func (s RegSet) Has(r Reg) bool { return s&RegSetOf(r) != 0 }
