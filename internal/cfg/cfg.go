// Package cfg recovers control-flow graphs from ELF images: basic-block
// discovery by recursive traversal, function-boundary inference, and the
// paper's *active addresses taken* heuristic (§4.3) that conservatively
// resolves indirect calls and jumps to the set of code addresses that
// are (a) used as lea operands and (b) reachable from the analysis
// roots.
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

// Edge is a directed CFG edge.
type Edge struct {
	Kind EdgeKind
	From *Block
	To   *Block
}

// Block is a basic block. Blocks end at terminators, calls, and syscall
// instructions (ending blocks at calls and syscalls gives the
// identification and phase-detection passes block-granular sites).
type Block struct {
	Addr  uint64
	Insns []x86.Inst
	Succs []Edge
	Preds []Edge

	// ID is the block's dense index in address order, assigned by
	// Recover: 0 <= ID < Graph.NumBlocks(). BlockSet and the analysis
	// scratch buffers are indexed by it.
	ID int

	// ImportCall is the name of the imported symbol this block calls or
	// jumps to through a GOT slot ("" if none).
	ImportCall string
}

// End returns the address just past the block's last instruction.
func (b *Block) End() uint64 {
	if len(b.Insns) == 0 {
		return b.Addr
	}
	return b.Insns[len(b.Insns)-1].Next()
}

// Last returns the final instruction of the block.
func (b *Block) Last() x86.Inst {
	return b.Insns[len(b.Insns)-1]
}

// Size returns the block size in bytes.
func (b *Block) Size() uint64 { return b.End() - b.Addr }

// EndsInSyscall reports whether the block's last instruction is syscall.
func (b *Block) EndsInSyscall() bool {
	return len(b.Insns) > 0 && b.Last().Op == x86.OpSyscall
}

// Func groups the blocks belonging to one function.
type Func struct {
	Entry  uint64
	Name   string
	Blocks []*Block // sorted by address
}

// Graph is a recovered control-flow graph.
//
// Immutability contract: a Graph — including every Block, Edge and
// Func hanging off it — is frozen once Recover returns. Nothing in
// this package or its consumers may mutate it afterwards, and every
// accessor is a pure read (no lazy caching), so any number of
// goroutines can traverse one Graph concurrently without locking.
// The intra-binary analysis pipeline depends on this: its
// wrapper-detection and identification units all read the same Graph
// from a worker pool. The contract is exercised by a concurrent-reader
// test under the race detector; code needing a mutated variant must
// re-Recover, never edit in place.
//
// The graph keeps no hash maps over its blocks or functions: both are
// held in address order, and BlockAt and FuncByEntry binary-search
// them. Nothing outside the graph refers back to it once its analysis
// is done — the frontend's and the analysis passes' reusable scratch
// holds no pointers into a graph between uses — so a dropped graph is
// garbage at the next GC.
type Graph struct {
	Bin   *elff.Binary
	Funcs []*Func // sorted by entry address

	// AddrTaken is every code address used as a lea operand anywhere in
	// the disassembled image; ActiveAddrTaken is the subset reachable
	// from the roots after the iterative refinement of §4.3.
	AddrTaken       []uint64
	ActiveAddrTaken []uint64

	// ImportStubs maps the entry address of each import stub (a block
	// that tail-jumps through a GOT slot) to the imported symbol name.
	ImportStubs map[uint64]string

	// Roots are the traversal entry points used for recovery.
	Roots []uint64

	// Stats describes the work performed (Table 3 reporting and budget
	// enforcement).
	Stats Stats

	sortedBlocks []*Block
}

// Stats counts recovery work.
type Stats struct {
	DecodedInsns   int
	NumBlocks      int
	NumEdges       int
	Iterations     int // active-address-taken refinement rounds
	DecodeFailures int
}

// BlockAt returns the block starting at addr.
func (g *Graph) BlockAt(addr uint64) (*Block, bool) {
	idx := sort.Search(len(g.sortedBlocks), func(i int) bool {
		return g.sortedBlocks[i].Addr >= addr
	})
	if idx < len(g.sortedBlocks) && g.sortedBlocks[idx].Addr == addr {
		return g.sortedBlocks[idx], true
	}
	return nil, false
}

// BlockContaining returns the block whose address range contains addr.
func (g *Graph) BlockContaining(addr uint64) (*Block, bool) {
	// Blocks never overlap; binary-search over the sorted block list.
	idx := sort.Search(len(g.sortedBlocks), func(i int) bool {
		return g.sortedBlocks[i].Addr > addr
	})
	if idx == 0 {
		return nil, false
	}
	b := g.sortedBlocks[idx-1]
	if addr >= b.Addr && addr < b.End() {
		return b, true
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
	return g.Funcs[idx-1], true
}

// FuncByEntry returns the function with the given entry address.
func (g *Graph) FuncByEntry(entry uint64) (*Func, bool) {
	idx := sort.Search(len(g.Funcs), func(i int) bool {
		return g.Funcs[i].Entry >= entry
	})
	if idx < len(g.Funcs) && g.Funcs[idx].Entry == entry {
		return g.Funcs[idx], true
	}
	return nil, false
}

// SyscallBlocks returns every block ending in a syscall instruction, in
// address order.
func (g *Graph) SyscallBlocks() []*Block {
	var out []*Block
	for _, b := range g.sortedBlocks {
		if b.EndsInSyscall() {
			out = append(out, b)
		}
	}
	return out
}

// Reachable returns the set of blocks reachable from the given root
// addresses following all edge kinds.
func (g *Graph) Reachable(roots ...uint64) map[*Block]bool {
	seen := make(map[*Block]bool)
	var stack []*Block
	for _, r := range roots {
		if b, ok := g.BlockAt(r); ok && !seen[b] {
			seen[b] = true
			stack = append(stack, b)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// SortedBlocks returns all blocks in address order. Callers must not
// modify the returned slice.
func (g *Graph) SortedBlocks() []*Block { return g.sortedBlocks }

// NumBlocks returns the number of blocks; block IDs are dense in
// [0, NumBlocks).
func (g *Graph) NumBlocks() int { return len(g.sortedBlocks) }

// Listing renders a human-readable disassembly of the recovered graph:
// functions in address order, their blocks, and per-block annotations
// (import calls, syscall sites).
func (g *Graph) Listing() string {
	var b strings.Builder
	for _, fn := range g.Funcs {
		name := fn.Name
		if name == "" {
			name = fmt.Sprintf("sub_%x", fn.Entry)
		}
		fmt.Fprintf(&b, "\n%s:\n", name)
		for _, blk := range fn.Blocks {
			fmt.Fprintf(&b, "  ; block %#x", blk.Addr)
			if blk.ImportCall != "" {
				fmt.Fprintf(&b, " -> import %s", blk.ImportCall)
			}
			if blk.EndsInSyscall() {
				b.WriteString(" [syscall site]")
			}
			b.WriteByte('\n')
			for _, in := range blk.Insns {
				fmt.Fprintf(&b, "  %s\n", in)
			}
		}
	}
	return b.String()
}
