package symex

import (
	"fmt"

	"bside/internal/x86"
)

// State is one machine state along a symbolic path: the sixteen
// general-purpose registers, the abstract stack (keyed by offset from
// the path's entry stack pointer), and an overlay for stores to
// concrete addresses.
type State struct {
	Regs    [x86.NumGPR]Value
	Stack   map[int64]Value
	Overlay map[uint64]Value
}

// NewState returns a state with every register unknown and RSP pointing
// at the abstract stack base.
func NewState() *State {
	s := &State{
		Stack:   make(map[int64]Value),
		Overlay: make(map[uint64]Value),
	}
	s.Regs[x86.RSP] = StackPtr(0)
	return s
}

// NewEntryState returns a function-entry state with the System V
// argument registers and the first stackParams stack slots tagged as
// parameters — the configuration used by wrapper detection's phase 2.
// It panics when stackParams exceeds the parameter table's
// maxStackParams slots.
func NewEntryState(stackParams int) *State {
	s := NewState()
	s.initEntry(stackParams)
	return s
}

// initEntry applies the function-entry parameter tagging to an
// otherwise-fresh state (shared by NewEntryState and the machine's
// pooled variant).
func (s *State) initEntry(stackParams int) {
	if stackParams > maxStackParams {
		panic(fmt.Sprintf("symex: %d stack parameters, the taint mask holds %d", stackParams, maxStackParams))
	}
	for i, r := range paramRegs {
		s.Regs[r] = paramValue(i)
	}
	for i := 0; i < stackParams; i++ {
		off := int64(8 * (i + 1)) // above the return address
		s.Stack[off] = paramValue(len(paramRegs) + i)
	}
}

// reset scrubs the state back to the NewState shape, keeping the map
// capacity for pooled reuse.
func (s *State) reset() {
	s.Regs = [x86.NumGPR]Value{}
	s.Regs[x86.RSP] = StackPtr(0)
	clear(s.Stack)
	clear(s.Overlay)
}

// Reg returns the value of r.
func (s *State) Reg(r x86.Reg) Value {
	if !r.Valid() {
		return Unknown()
	}
	return s.Regs[r]
}

// SetReg assigns r.
func (s *State) SetReg(r x86.Reg, v Value) {
	if r.Valid() {
		s.Regs[r] = v
	}
}

// LoadStack reads the 8-byte slot at the given abstract offset.
func (s *State) LoadStack(off int64) Value {
	if v, ok := s.Stack[off]; ok {
		return v
	}
	return Unknown()
}

// StoreStack writes the 8-byte slot at the given abstract offset.
func (s *State) StoreStack(off int64, v Value) { s.Stack[off] = v }

// havocCallerSaved clobbers the ABI caller-saved registers, modelling a
// skipped call to a function outside the directed search set.
func (s *State) havocCallerSaved() {
	for r := x86.Reg(0); r < x86.NumGPR; r++ {
		if r.IsCallerSaved() {
			s.Regs[r] = Unknown()
		}
	}
}
