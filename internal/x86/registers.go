// Package x86 implements a decoder for the subset of the x86-64
// instruction set that matters for static system-call identification:
// data movement, address formation, integer ALU operations, stack
// manipulation, control flow, and the syscall instruction itself.
//
// The decoder understands REX prefixes, ModRM/SIB addressing and
// RIP-relative operands, which is sufficient to disassemble the machine
// code produced by compilers around system call sites as well as the
// binaries synthesized by the corpus generator in this repository.
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

// NumGPR is the number of addressable general-purpose registers.
const NumGPR = 16

var regNames = [...]string{
	RAX: "rax", RCX: "rcx", RDX: "rdx", RBX: "rbx",
	RSP: "rsp", RBP: "rbp", RSI: "rsi", RDI: "rdi",
	R8: "r8", R9: "r9", R10: "r10", R11: "r11",
	R12: "r12", R13: "r13", R14: "r14", R15: "r15",
	RIP: "rip",
}

// String returns the conventional 64-bit name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) && regNames[r] != "" {
		return regNames[r]
	}
	if r == RegNone {
		return "none"
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Valid reports whether r names one of the 16 general-purpose registers.
func (r Reg) Valid() bool { return r < NumGPR }

// IsCallerSaved reports whether the System V AMD64 ABI allows a called
// function to clobber r. The symbolic executor uses this to havoc
// registers across skipped calls.
func (r Reg) IsCallerSaved() bool {
	switch r {
	case RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11:
		return true
	}
	return false
}
