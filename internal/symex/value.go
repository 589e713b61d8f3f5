// Package symex implements the symbolic execution engine behind
// B-Side's system-call identification (§4.4 of the paper): a forward,
// CFG-directed executor over decoded x86-64 whose value domain tracks
// concrete constants, abstract stack pointers, tagged function
// parameters, and taint-carrying unknowns. Constants survive round
// trips through stack memory — the property that lets B-Side identify
// system call numbers where use-define-chain tools (SysFilter) and
// register-window scanners (Chestnut) lose them.
package symex

import (
	"fmt"
	"math/bits"
	"strings"

	"bside/internal/x86"
)

// Kind discriminates symbolic values.
type Kind uint8

// Value kinds.
const (
	// KUnknown is an opaque value, possibly tainted by parameters.
	KUnknown Kind = iota
	// KConst is a concrete 64-bit constant.
	KConst
	// KStackPtr is an address into the abstract stack: base + offset.
	KStackPtr
	// KParam is an unmodified function parameter (register or stack
	// slot), used by the wrapper-detection heuristic.
	KParam
)

// ParamRef names a function parameter in the System V sense: either one
// of the argument registers, or a stack slot at a positive offset from
// the entry stack pointer (offset 8 is the first qword above the return
// address).
type ParamRef struct {
	Stack bool
	Reg   x86.Reg
	Off   int64
}

// String renders the parameter reference.
func (p ParamRef) String() string {
	if p.Stack {
		return fmt.Sprintf("arg[rsp+%d]", p.Off)
	}
	return "arg:" + p.Reg.String()
}

// The parameter table gives every parameter a value can carry one bit
// of a taint mask. It lists the System V argument registers in
// register-number order, then the stack slots +8, +16, ... — so a
// mask's lowest bit is the lowest register by number, and registers
// come before stack slots.
var paramRegs = [...]x86.Reg{x86.RCX, x86.RDX, x86.RSI, x86.RDI, x86.R8, x86.R9}

// maxStackParams is how many stack slots the table holds after the
// registers: one taint bit each.
const maxStackParams = 32 - len(paramRegs)

// paramAt returns the parameter at table index i.
func paramAt(i int) ParamRef {
	if i < len(paramRegs) {
		return ParamRef{Reg: paramRegs[i]}
	}
	return ParamRef{Stack: true, Off: int64(8 * (i - len(paramRegs) + 1))}
}

// Value is a symbolic value. The zero value is an untainted unknown.
// It is 16 bytes and holds no pointers: the executor copies values on
// every instruction, and a state's registers and stack then clear
// without write barriers.
type Value struct {
	Kind Kind
	// taint is a bitmask over the parameter table: for KParam the one
	// parameter itself, for KUnknown the parameters that influenced it,
	// zero for the other kinds.
	taint uint32
	K     uint64 // constant bits (KConst) or stack offset as int64 (KStackPtr)
}

// Const builds a concrete value.
func Const(v uint64) Value { return Value{Kind: KConst, K: v} }

// StackPtr builds an abstract stack address at the given offset from
// the state's stack base.
func StackPtr(off int64) Value { return Value{Kind: KStackPtr, K: uint64(off)} }

// Param builds a parameter value. It panics when p is not in the
// parameter table: a register that carries no System V argument, or a
// stack slot beyond the table's maxStackParams qwords.
func Param(p ParamRef) Value {
	for i := 0; i < len(paramRegs)+maxStackParams; i++ {
		if paramAt(i) == p {
			return paramValue(i)
		}
	}
	panic(fmt.Sprintf("symex: %v is not in the parameter table", p))
}

// paramValue is the parameter at table index i.
func paramValue(i int) Value { return Value{Kind: KParam, taint: 1 << i} }

// Unknown is an untainted opaque value.
func Unknown() Value { return Value{} }

// IsConst reports whether v is concrete, returning its bits.
func (v Value) IsConst() (uint64, bool) {
	if v.Kind == KConst {
		return v.K, true
	}
	return 0, false
}

// StackOff returns the stack offset of a KStackPtr value.
func (v Value) StackOff() int64 { return int64(v.K) }

// Param returns the parameter that carries v: a KParam's own parameter,
// or a tainted KUnknown's first influence in table order. ok is false
// when no parameter influenced v.
func (v Value) Param() (p ParamRef, ok bool) {
	if v.taint == 0 {
		return ParamRef{}, false
	}
	return paramAt(bits.TrailingZeros32(v.taint)), true
}

// AllTaint returns the parameters influencing v (for KParam, the
// parameter itself) in table order.
func (v Value) AllTaint() []ParamRef {
	var out []ParamRef
	for m := v.taint; m != 0; m &= m - 1 {
		out = append(out, paramAt(bits.TrailingZeros32(m)))
	}
	return out
}

// String renders the value.
func (v Value) String() string {
	switch v.Kind {
	case KConst:
		return fmt.Sprintf("%#x", v.K)
	case KStackPtr:
		return fmt.Sprintf("stack%+d", v.StackOff())
	case KParam:
		p, _ := v.Param()
		return p.String()
	default:
		if v.taint == 0 {
			return "?"
		}
		var parts []string
		for _, p := range v.AllTaint() {
			parts = append(parts, p.String())
		}
		return "?{" + strings.Join(parts, ",") + "}"
	}
}

// taintedUnknown builds an unknown influenced by v's taint.
func taintedUnknown(v Value) Value { return Value{taint: v.taint} }

// taintedUnknown2 builds an unknown influenced by the taints of a and b.
func taintedUnknown2(a, b Value) Value { return Value{taint: a.taint | b.taint} }

// truncate masks a value to the given operand size, modelling the
// zero-extension of 32-bit destinations. Non-constants keep their
// identity for sizes >= 4 (the analysis only needs low-32-bit
// precision); narrower writes degrade to tainted unknowns.
func truncate(v Value, size uint8) Value {
	switch size {
	case 8:
		return v
	case 4:
		if k, ok := v.IsConst(); ok {
			return Const(k & 0xFFFFFFFF)
		}
		if v.Kind == KParam || v.Kind == KUnknown {
			return v
		}
		return taintedUnknown(v)
	default:
		if k, ok := v.IsConst(); ok {
			mask := uint64(1)<<(8*uint(size)) - 1
			return Const(k & mask)
		}
		return taintedUnknown(v)
	}
}
