// Package filter compiles syscall allow-lists — the end product of
// B-Side's analysis — into classic-BPF seccomp filter programs, the
// deployment vehicle the paper targets (§1, §4.7). The compiler emits
// the cBPF subset seccomp accepts (LD of the architecture and the
// syscall number, JEQ/JGE conditional jumps, RET with an action). It
// denies every call that is not a native x86-64 one, then builds a
// balanced decision tree over number ranges, like libseccomp's
// binary-tree optimization, so programs stay within the kernel's
// instruction limits even for large allow-lists.
//
// An interpreter with seccomp's exact execution rules (forward-only
// jumps, bounded length, mandatory terminal return) runs the programs
// in tests and in the enforcement simulator.
package filter

import (
	"errors"
	"fmt"
	"sort"
)

// Action is a seccomp return action.
type Action uint32

// Actions (values mirror the kernel's SECCOMP_RET_* ordering).
const (
	ActionKill Action = 0x00000000
	// ActionErrno fails the call with EPERM: SECCOMP_RET_ERRNO carries
	// the errno in its low 16 bits, and with 0 there a denied call
	// would return 0 and read as success.
	ActionErrno Action = 0x00050001
	ActionAllow Action = 0x7FFF0000
)

// AuditArchX86_64 is seccomp_data.arch for a native x86-64 system call
// (AUDIT_ARCH_X86_64). Compiled programs deny every other architecture,
// such as an i386 int 0x80 call, whose numbers mean other calls.
const AuditArchX86_64 = 0xC000003E

// x32Bit marks the numbers of x32-ABI system calls, which share the
// x86-64 architecture value (__X32_SYSCALL_BIT).
const x32Bit = 0x40000000

// The seccomp_data words a program may load.
const (
	offNr   = 0 // the system call number
	offArch = 4 // the AUDIT_ARCH_* value
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionKill:
		return "kill"
	case ActionErrno:
		return "errno"
	case ActionAllow:
		return "allow"
	}
	return fmt.Sprintf("action(%#x)", uint32(a))
}

// Opcodes: the cBPF subset seccomp filters use.
const (
	opLdAbs uint16 = 0x20 // BPF_LD | BPF_W | BPF_ABS (the seccomp_data word at K)
	opJeqK  uint16 = 0x15 // BPF_JMP | BPF_JEQ | BPF_K
	opJgeK  uint16 = 0x35 // BPF_JMP | BPF_JGE | BPF_K
	opJa    uint16 = 0x05 // BPF_JMP | BPF_JA (32-bit forward trampoline)
	opRetK  uint16 = 0x06 // BPF_RET | BPF_K
)

// Insn is one cBPF instruction.
type Insn struct {
	Op uint16
	Jt uint8
	Jf uint8
	K  uint32
}

// String renders the instruction.
func (i Insn) String() string {
	switch i.Op {
	case opLdAbs:
		if i.K == offArch {
			return "ld arch"
		}
		return "ld nr"
	case opJeqK:
		return fmt.Sprintf("jeq #%d jt=%d jf=%d", i.K, i.Jt, i.Jf)
	case opJgeK:
		return fmt.Sprintf("jge #%d jt=%d jf=%d", i.K, i.Jt, i.Jf)
	case opJa:
		return fmt.Sprintf("ja +%d", i.K)
	case opRetK:
		return fmt.Sprintf("ret %s", Action(i.K))
	}
	return fmt.Sprintf("op=%#x k=%d", i.Op, i.K)
}

// Program is a compiled filter.
type Program struct {
	Insns []Insn
	// Default is the action for syscalls outside the allow list.
	Default Action
}

// MaxInsns mirrors the kernel's BPF_MAXINSNS limit.
const MaxInsns = 4096

// Interpreter errors.
var (
	ErrTooLong      = errors.New("filter: program exceeds BPF_MAXINSNS")
	ErrBadJump      = errors.New("filter: jump out of range")
	ErrNoReturn     = errors.New("filter: fell off the end of the program")
	ErrNotValidated = errors.New("filter: program failed validation")
)

// Compile builds a filter allowing exactly the given x86-64 syscall
// numbers; everything else, including every call of another
// architecture or the x32 ABI, yields deny. The allow list is folded
// into maximal contiguous ranges first, then a balanced decision tree
// is emitted over the ranges, giving O(log n) evaluation depth.
func Compile(allowed []uint64, deny Action) (*Program, error) {
	if deny == ActionAllow {
		return nil, fmt.Errorf("filter: default action must deny")
	}
	ranges := foldRanges(allowed)
	p := &Program{Default: deny}
	// Only a native x86-64 call reaches the tree: arch == x86-64 and
	// nr < x32Bit, else deny.
	p.emit(Insn{Op: opLdAbs, K: offArch})
	p.emit(Insn{Op: opJeqK, K: AuditArchX86_64, Jf: 2})
	p.emit(Insn{Op: opLdAbs, K: offNr})
	p.emit(Insn{Op: opJgeK, K: x32Bit, Jf: 1})
	p.emit(Insn{Op: opRetK, K: uint32(deny)})
	// Build the tree; every leaf emits ret allow / ret deny.
	if err := p.tree(ranges); err != nil {
		return nil, err
	}
	if len(p.Insns) > MaxInsns {
		return nil, ErrTooLong
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// span is a closed syscall-number range.
type span struct{ lo, hi uint32 }

func foldRanges(allowed []uint64) []span {
	if len(allowed) == 0 {
		return nil
	}
	sorted := append([]uint64(nil), allowed...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []span
	cur := span{lo: uint32(sorted[0]), hi: uint32(sorted[0])}
	for _, n := range sorted[1:] {
		v := uint32(n)
		if v == cur.hi || v == cur.hi+1 {
			cur.hi = v
			continue
		}
		out = append(out, cur)
		cur = span{lo: v, hi: v}
	}
	return append(out, cur)
}

func (p *Program) emit(i Insn) int {
	p.Insns = append(p.Insns, i)
	return len(p.Insns) - 1
}

// tree emits a balanced comparison tree over the sorted ranges. The
// generated code uses forward-only relative jumps as seccomp requires;
// each subtree is emitted depth-first and jumps are patched afterwards.
func (p *Program) tree(ranges []span) error {
	retAllow := func() { p.emit(Insn{Op: opRetK, K: uint32(ActionAllow)}) }
	retDeny := func() { p.emit(Insn{Op: opRetK, K: uint32(p.Default)}) }

	var build func(lo, hi int) error
	build = func(lo, hi int) error {
		if lo > hi {
			retDeny()
			return nil
		}
		if lo == hi {
			r := ranges[lo]
			if r.lo == r.hi {
				// jeq lo -> allow else deny
				idx := p.emit(Insn{Op: opJeqK, K: r.lo})
				retAllow()
				if err := p.patch(idx, idx+1, idx+2); err != nil {
					return err
				}
				retDeny()
				return nil
			}
			// lo <= nr <= hi: jge lo ? (jge hi+1 ? deny : allow) : deny.
			// Every number passes jge 0, so a range from 0 skips it.
			idx1 := -1
			if r.lo > 0 {
				idx1 = p.emit(Insn{Op: opJgeK, K: r.lo})
			}
			idx2 := p.emit(Insn{Op: opJgeK, K: r.hi + 1})
			retAllow()
			retDeny()
			if idx1 >= 0 {
				if err := p.patch(idx1, idx1+1, idx2+2); err != nil {
					return err
				}
			}
			return p.patch(idx2, idx2+2, idx2+1)
		}
		mid := (lo + hi + 1) / 2
		// nr >= ranges[mid].lo ? right half : left half. The right
		// half can sit arbitrarily far away, beyond the 8-bit
		// conditional offsets, so route it through a 32-bit BPF_JA
		// trampoline placed right after the conditional.
		idx := p.emit(Insn{Op: opJgeK, K: ranges[mid].lo})
		ja := p.emit(Insn{Op: opJa})
		leftStart := len(p.Insns)
		if err := build(lo, mid-1); err != nil {
			return err
		}
		rightStart := len(p.Insns)
		if err := build(mid, hi); err != nil {
			return err
		}
		if err := p.patch(idx, ja, leftStart); err != nil {
			return err
		}
		p.Insns[ja].K = uint32(rightStart - ja - 1)
		return nil
	}
	return build(0, len(ranges)-1)
}

// patch sets the jump offsets of instruction idx to absolute targets.
func (p *Program) patch(idx, jtAbs, jfAbs int) error {
	jt := jtAbs - idx - 1
	jf := jfAbs - idx - 1
	if jt < 0 || jt > 255 || jf < 0 || jf > 255 {
		return ErrBadJump
	}
	p.Insns[idx].Jt = uint8(jt)
	p.Insns[idx].Jf = uint8(jf)
	return nil
}

// Validate applies seccomp's static checks: bounded length, known
// opcodes, loads of the number or the architecture only, in-range
// forward jumps, and a return on every path.
func (p *Program) Validate() error {
	n := len(p.Insns)
	if n == 0 || n > MaxInsns {
		return ErrNotValidated
	}
	for i, in := range p.Insns {
		switch in.Op {
		case opLdAbs:
			if in.K != offNr && in.K != offArch {
				return fmt.Errorf("%w: load at offset %d", ErrNotValidated, in.K)
			}
		case opRetK:
		case opJeqK, opJgeK:
			if i+1+int(in.Jt) >= n || i+1+int(in.Jf) >= n {
				return fmt.Errorf("%w: insn %d", ErrBadJump, i)
			}
		case opJa:
			if i+1+int(in.K) >= n {
				return fmt.Errorf("%w: insn %d", ErrBadJump, i)
			}
		default:
			return fmt.Errorf("%w: opcode %#x", ErrNotValidated, in.Op)
		}
	}
	if p.Insns[n-1].Op != opRetK {
		return ErrNoReturn
	}
	return nil
}

// Exec runs the filter for a system call of the given architecture
// (an AUDIT_ARCH_* value, as in seccomp_data.arch) and number, with
// seccomp's execution rules.
func (p *Program) Exec(arch uint32, nr uint64) (Action, error) {
	var acc uint32
	pc := 0
	for steps := 0; steps <= len(p.Insns); steps++ {
		if pc >= len(p.Insns) {
			return ActionKill, ErrNoReturn
		}
		in := p.Insns[pc]
		switch in.Op {
		case opLdAbs:
			switch in.K {
			case offNr:
				acc = uint32(nr)
			case offArch:
				acc = arch
			default:
				return ActionKill, ErrNotValidated
			}
			pc++
		case opJeqK:
			if acc == in.K {
				pc += 1 + int(in.Jt)
			} else {
				pc += 1 + int(in.Jf)
			}
		case opJgeK:
			if acc >= in.K {
				pc += 1 + int(in.Jt)
			} else {
				pc += 1 + int(in.Jf)
			}
		case opJa:
			pc += 1 + int(in.K)
		case opRetK:
			return Action(in.K), nil
		default:
			return ActionKill, ErrNotValidated
		}
	}
	return ActionKill, ErrNoReturn
}

// Allows reports whether the filter allows x86-64 system call nr.
func (p *Program) Allows(nr uint64) bool {
	a, err := p.Exec(AuditArchX86_64, nr)
	return err == nil && a == ActionAllow
}
