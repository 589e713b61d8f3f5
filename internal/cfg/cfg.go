// Package cfg recovers control-flow graphs from ELF images: basic-block
// discovery by recursive traversal, function-boundary inference, and the
// paper's *active addresses taken* heuristic (§4.3) that conservatively
// resolves indirect calls and jumps to the set of code addresses that
// are (a) used as lea operands and (b) reachable from the analysis
// roots. The graph holds no pointers: blocks, edges and functions are
// IDs and ID ranges over flat slabs (see Graph).
package cfg

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"bside/internal/elff"
	"bside/internal/x86"
)

// ErrBudget is returned when CFG recovery exceeds the configured
// instruction budget; callers treat it as an analysis timeout.
var ErrBudget = errors.New("cfg: instruction budget exceeded")

// EdgeKind classifies CFG edges.
type EdgeKind uint8

// Edge kinds.
const (
	// EdgeFall links a block to its fall-through successor.
	EdgeFall EdgeKind = iota + 1
	// EdgeJump links a jmp/jcc block to its direct target.
	EdgeJump
	// EdgeCall links a call block to the callee's entry block.
	EdgeCall
	// EdgeCallFall links a call block to the block after the call
	// (the callee's return lands there).
	EdgeCallFall
	// EdgeIndirectCall links an indirect-call block to an active
	// address-taken target (heuristic overestimation).
	EdgeIndirectCall
	// EdgeIndirectJump links an indirect-jump block to an active
	// address-taken target.
	EdgeIndirectJump
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeFall:
		return "fall"
	case EdgeJump:
		return "jump"
	case EdgeCall:
		return "call"
	case EdgeCallFall:
		return "call-fall"
	case EdgeIndirectCall:
		return "icall"
	case EdgeIndirectJump:
		return "ijump"
	}
	return "?"
}

// BlockID is a block's index in address order: 0 <= id <
// Graph.NumBlocks(). BlockSet and the analysis scratch buffers are
// indexed by it.
type BlockID int32

// Edge is a directed CFG edge between two blocks of one graph.
type Edge struct {
	Kind     EdgeKind
	From, To BlockID
}

// Block is a basic block. Blocks end at terminators, calls, and syscall
// instructions (ending blocks at calls and syscalls gives the
// identification and phase-detection passes block-granular sites). It
// holds no pointer: the Graph's accessors read its instructions (at
// least one), edges and import name through its offsets. A *Block is
// &blocks[id] in its graph, never a copy.
type Block struct {
	Addr uint64
	ID   BlockID

	insn int32 // first instruction in Graph.insns
	succ int32 // first out-edge in Graph.succs
	pred int32 // first in-edge in Graph.preds
	imp  int32 // index + 1 into Bin.Imports of the called import; 0 = none
}

// Func groups the blocks belonging to one function: the IDs [First,
// End), contiguous under the nearest-preceding-entry rule.
type Func struct {
	Entry      uint64
	Name       string
	First, End BlockID
}

// Graph is a recovered control-flow graph.
//
// Layout: one address-ordered instruction slab, the blocks in address
// order plus a sentinel holding the slab ends (block i's instructions
// are insns[blocks[i].insn:blocks[i+1].insn], its edges likewise), and
// two CSR edge slabs: succs groups the out-edges by source block, preds
// the same edges by target, in source-ID then edge order. None holds a
// pointer, so the GC never scans them.
//
// Immutability contract: a Graph — including every slab, Block and
// Func in it — is frozen once Recover returns. Nothing in this package
// or its consumers may mutate it afterwards, and every accessor is a
// pure read (no lazy caching), so any number of goroutines can
// traverse one Graph concurrently without locking. The intra-binary
// analysis pipeline depends on this: its wrapper-detection and
// identification units all read the same Graph from a worker pool. The
// contract is exercised by a concurrent-reader test under the race
// detector; code needing a mutated variant must re-Recover, never edit
// in place.
//
// The graph keeps no hash maps over its blocks or functions: both are
// held in address order, and BlockAt and FuncByEntry binary-search
// them. Nothing outside the graph refers back to it once its analysis
// is done — the frontend's and the analysis passes' reusable scratch
// holds block IDs, never pointers into a graph — so a dropped graph is
// garbage at the next GC.
type Graph struct {
	Bin   *elff.Binary
	Funcs []Func // sorted by entry address

	// ActiveAddrTaken holds the code addresses used as lea operands in
	// code reachable from the roots after the iterative refinement of
	// §4.3, in address order: the targets of indirect edges.
	ActiveAddrTaken []uint64

	// Roots are the traversal entry points used for recovery.
	Roots []uint64

	// Stats describes the work performed (Table 3 reporting and budget
	// enforcement).
	Stats Stats

	blocks []Block // address order, then the sentinel
	insns  []x86.Inst
	succs  []Edge
	preds  []Edge
}

// Stats counts recovery work.
type Stats struct {
	DecodedInsns   int
	NumBlocks      int
	NumEdges       int
	DecodeFailures int
}

// Block returns the block with the given ID.
func (g *Graph) Block(id BlockID) *Block { return &g.blocks[id] }

// Blocks returns all blocks in address order (index = ID). Callers
// must not modify the returned slice.
func (g *Graph) Blocks() []Block { return g.blocks[:len(g.blocks)-1] }

// NumBlocks returns the number of blocks; block IDs are dense in
// [0, NumBlocks).
func (g *Graph) NumBlocks() int { return len(g.blocks) - 1 }

// Insns returns b's instructions in address order.
func (g *Graph) Insns(b *Block) []x86.Inst {
	end := g.blocks[b.ID+1].insn
	return g.insns[b.insn:end:end]
}

// Last returns the final instruction of b, in place in the graph's
// instruction slab: callers must not modify it.
func (g *Graph) Last(b *Block) *x86.Inst { return &g.insns[g.blocks[b.ID+1].insn-1] }

// End returns the address just past b's last instruction.
func (g *Graph) End(b *Block) uint64 { return g.Last(b).Next() }

// Succs returns b's out-edges in wiring order: the direct branch
// target, the indirect fan-out to the active address-taken blocks in
// address order, then the fall-through (a call's return site).
func (g *Graph) Succs(b *Block) []Edge {
	end := g.blocks[b.ID+1].succ
	return g.succs[b.succ:end:end]
}

// Preds returns b's in-edges, by source block ID and then in the
// source's edge order.
func (g *Graph) Preds(b *Block) []Edge {
	end := g.blocks[b.ID+1].pred
	return g.preds[b.pred:end:end]
}

// ImportCall returns the name of the imported symbol b calls or jumps
// to through a GOT slot, or "".
func (g *Graph) ImportCall(b *Block) string {
	if b.imp == 0 {
		return ""
	}
	return g.Bin.Imports[b.imp-1].Name
}

// FuncBlocks returns f's blocks in address order.
func (g *Graph) FuncBlocks(f *Func) []Block { return g.blocks[f.First:f.End:f.End] }

// BlockAt returns the block starting at addr.
func (g *Graph) BlockAt(addr uint64) (*Block, bool) {
	blocks := g.Blocks()
	idx := sort.Search(len(blocks), func(i int) bool {
		return blocks[i].Addr >= addr
	})
	if idx < len(blocks) && blocks[idx].Addr == addr {
		return &blocks[idx], true
	}
	return nil, false
}

// FuncContaining returns the function whose range contains addr, using
// the nearest-preceding-entry rule.
func (g *Graph) FuncContaining(addr uint64) (*Func, bool) {
	idx := sort.Search(len(g.Funcs), func(i int) bool {
		return g.Funcs[i].Entry > addr
	})
	if idx == 0 {
		return nil, false
	}
	return &g.Funcs[idx-1], true
}

// FuncByEntry returns the function with the given entry address.
func (g *Graph) FuncByEntry(entry uint64) (*Func, bool) {
	idx := sort.Search(len(g.Funcs), func(i int) bool {
		return g.Funcs[i].Entry >= entry
	})
	if idx < len(g.Funcs) && g.Funcs[idx].Entry == entry {
		return &g.Funcs[idx], true
	}
	return nil, false
}

// EndsInSyscall reports whether b's last instruction is syscall.
func (g *Graph) EndsInSyscall(b *Block) bool { return g.Last(b).Op == x86.OpSyscall }

// SyscallBlocks returns every block ending in a syscall instruction, in
// address order.
func (g *Graph) SyscallBlocks() []*Block {
	var out []*Block
	blocks := g.Blocks()
	for i := range blocks {
		if g.EndsInSyscall(&blocks[i]) {
			out = append(out, &blocks[i])
		}
	}
	return out
}

// Listing renders a human-readable disassembly of the recovered graph:
// functions in address order, their blocks, and per-block annotations
// (import calls, syscall sites).
func (g *Graph) Listing() string {
	var b strings.Builder
	for i := range g.Funcs {
		fn := &g.Funcs[i]
		name := fn.Name
		if name == "" {
			name = fmt.Sprintf("sub_%x", fn.Entry)
		}
		fmt.Fprintf(&b, "\n%s:\n", name)
		blocks := g.FuncBlocks(fn)
		for j := range blocks {
			blk := &blocks[j]
			fmt.Fprintf(&b, "  ; block %#x", blk.Addr)
			if imp := g.ImportCall(blk); imp != "" {
				fmt.Fprintf(&b, " -> import %s", imp)
			}
			if g.EndsInSyscall(blk) {
				b.WriteString(" [syscall site]")
			}
			b.WriteByte('\n')
			for _, in := range g.Insns(blk) {
				fmt.Fprintf(&b, "  %s\n", in)
			}
		}
	}
	return b.String()
}
