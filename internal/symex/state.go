package symex

import (
	"fmt"
	"math/bits"

	"bside/internal/x86"
)

// State is one machine state along a symbolic path: the sixteen
// general-purpose registers, the abstract stack (keyed by offset from
// the path's entry stack pointer), and an overlay for stores to
// concrete addresses.
//
// Memory is written only through StoreStack and storeMem, which log
// the value each store replaced, so a run can roll its one live state
// back to a branch point (undo) instead of copying the state per fork.
type State struct {
	Regs    [x86.NumGPR]Value
	stack   map[int64]Value
	overlay map[uint64]Value
	writes  []write
}

// write is one logged memory store: the slot, and what it held before.
type write struct {
	addr  uint64 // the stack offset as int64 when stack is set
	old   Value
	stack bool
	had   bool // the slot held old; otherwise it was unset
}

// NewState returns a state with every register unknown and RSP pointing
// at the abstract stack base.
func NewState() *State {
	s := &State{
		stack:   make(map[int64]Value),
		overlay: make(map[uint64]Value),
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
		s.stack[off] = paramValue(len(paramRegs) + i)
	}
}

// reset scrubs the state back to the NewState shape, keeping the map
// and log capacity for pooled reuse.
func (s *State) reset() {
	s.Regs = [x86.NumGPR]Value{}
	s.Regs[x86.RSP] = StackPtr(0)
	clear(s.stack)
	clear(s.overlay)
	s.writes = s.writes[:0]
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
	if v, ok := s.stack[off]; ok {
		return v
	}
	return Unknown()
}

// StoreStack writes the 8-byte slot at the given abstract offset.
func (s *State) StoreStack(off int64, v Value) {
	old, had := s.stack[off]
	s.writes = append(s.writes, write{addr: uint64(off), old: old, stack: true, had: had})
	s.stack[off] = v
}

// storeMem writes the overlay at a concrete address.
func (s *State) storeMem(addr uint64, v Value) {
	old, had := s.overlay[addr]
	s.writes = append(s.writes, write{addr: addr, old: old, had: had})
	s.overlay[addr] = v
}

// undo rolls memory back to when the write log held mark entries,
// latest store first.
func (s *State) undo(mark int) {
	for i := len(s.writes) - 1; i >= mark; i-- {
		w := s.writes[i]
		switch {
		case w.stack && w.had:
			s.stack[int64(w.addr)] = w.old
		case w.stack:
			delete(s.stack, int64(w.addr))
		case w.had:
			s.overlay[w.addr] = w.old
		default:
			delete(s.overlay, w.addr)
		}
	}
	s.writes = s.writes[:mark]
}

// havoc clobbers the registers in rs: what an instruction writes, or
// x86.CallerSaved for a skipped call to a function outside the directed
// search set.
func (s *State) havoc(rs x86.RegSet) {
	for ; rs != 0; rs &= rs - 1 {
		s.Regs[bits.TrailingZeros16(uint16(rs))] = Unknown()
	}
}
