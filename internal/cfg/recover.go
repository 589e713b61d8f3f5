package cfg

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"bside/internal/elff"
	"bside/internal/x86"
)

// Options configures CFG recovery.
type Options struct {
	// MaxInsns bounds the total number of decoded instructions across
	// all refinement rounds; 0 means a generous default. Exceeding it
	// yields ErrBudget (the analysis-timeout analog).
	MaxInsns int
	// ExtraRoots are additional traversal entry points (e.g. exported
	// functions of a shared library).
	ExtraRoots []uint64
}

func (o Options) withDefaults() Options {
	if o.MaxInsns == 0 {
		o.MaxInsns = 4_000_000
	}
	return o
}

// maxRounds bounds the active-address-taken activation cascade, as a
// guard against a runaway one: an address activated from code that
// itself only became reachable through an earlier activation sits one
// round deeper.
const maxRounds = 32

// Recover disassembles bin and builds its precise CFG, including
// heuristic indirect edges via active addresses taken (§4.3). Roots are
// the entry point (executables), exported functions (libraries) and any
// extra roots passed in the options.
//
// The frontend is allocation-lean by construction: one decode pass
// fills a flat instruction arena indexed by code offset, the §4.3
// refinement runs as a single incremental instruction-level fixpoint
// (a lea's code pointer is activated when the walk first visits it,
// newly activated regions are traversed exactly once, and reachability
// never restarts), and the final graph is materialized once at the
// fixpoint into four pointer-free slabs: the address-ordered
// instructions, the blocks, and the out- and in-edges, the latter two
// wired by one edge pass.
func Recover(bin *elff.Binary, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	b := getBuilder(bin, opts.MaxInsns)
	defer putBuilder(b)

	// Reachability roots drive the *active* address-taken refinement:
	// the entry point for executables, exported functions for
	// libraries, plus caller-specified roots.
	var roots []uint64
	if bin.Entry != 0 {
		roots = append(roots, bin.Entry)
	}
	for _, e := range bin.Exports {
		roots = append(roots, e.Addr)
	}
	roots = append(roots, opts.ExtraRoots...)
	if len(roots) == 0 {
		return nil, fmt.Errorf("cfg: no traversal roots for %s image", bin.Kind)
	}

	// Decode roots additionally include function symbols, mirroring
	// disassemblers that sweep all known function starts; code decoded
	// this way is analyzed but only counts as reachable if the
	// refinement loop can actually get there from the real roots.
	decodeRoots := append([]uint64(nil), roots...)
	for _, addr := range bin.Symbols {
		decodeRoots = append(decodeRoots, addr)
	}

	// Data-carried code pointers (jump tables, vtables): aligned quads
	// in the data region pointing into code are addresses taken that
	// the lea scan cannot see. SysFilter harvests these from
	// relocations; we harvest them from the image. They are
	// conservatively active from the start — missing one would be a
	// false-negative source.
	dataPtrs := scanDataPointers(bin)
	// RELATIVE relocation targets are the linker's own record of planted
	// pointers — the scan finds baked-in slot values, the relocations
	// additionally vouch for slots the loader populates. Both feeds are
	// deduplicated by the activation set.
	for _, rel := range bin.Relocs {
		if bin.CodeContains(rel.Target) {
			dataPtrs = append(dataPtrs, rel.Target)
		}
	}
	decodeRoots = append(decodeRoots, dataPtrs...)

	if err := b.traverse(decodeRoots...); err != nil {
		return nil, err
	}

	// Figure 4's iterative refinement, incrementally: a single
	// instruction-level reachability walk that activates lea-taken
	// addresses on first visit, decodes newly activated regions in
	// place, and resumes — no per-round rebuild, no rescan of already
	// visited code.
	if err := b.fixpoint(roots, dataPtrs); err != nil {
		return nil, err
	}

	g := &Graph{Bin: bin, Roots: roots}
	b.materialize(g)
	b.inferFunctions(g)
	g.Stats.DecodedInsns = b.decoded
	g.Stats.NumBlocks = g.NumBlocks()
	g.Stats.DecodeFailures = b.decodeFailures
	return g, nil
}

// builder carries the decode arena and the fixpoint working set. Its
// buffers are reused across Recover calls through the builders free
// list, so a batch analyzer pays the frontend's allocations once, not
// per binary. A builder on the free list holds no pointer into the
// image or the graph it last built.
type builder struct {
	bin  *elff.Binary
	base uint64
	code int // code region length in bytes

	// arena holds decoded instructions in decode order; off2idx maps a
	// code offset to its arena index + 1 (0 = not decoded).
	arena   []x86.Inst
	off2idx []int32

	// leader marks code offsets that must begin a basic block.
	leader offBits

	// Fixpoint state: visited is indexed by arena index; active marks
	// activated address-taken offsets, with activeList recording them
	// in activation order.
	visited    offBits
	active     offBits
	activeList []uint64
	stack      []fixEnt

	// work is traverse's stack of addresses still to decode.
	work []uint64

	// slotImport maps GOT slot addresses to indices into bin.Imports,
	// built once.
	slotImport map[uint64]int32

	// Finalization scratch, reused across calls: per-block start
	// indices, the block index (blockOf: block ID + 1 at the
	// address-ordered arena index of each block's first instruction, 0
	// elsewhere), the active address-taken blocks, the out-edges in
	// block order, the blocks direct calls target (one per call), and
	// the per-block in-edge counts that become the in-edge cursors.
	blockStarts []int32
	blockOf     []int32
	activeIDs   []BlockID
	edges       []Edge
	callees     []BlockID
	predAt      []int32
	entries     []funcEntry

	decoded        int
	decodeFailures int
	budget         int
}

// fixEnt is one fixpoint work item: an arena instruction index tagged
// with its activation wave (how many address-taken activations separate
// it from the roots) — the incremental analog of the old round counter.
type fixEnt struct {
	idx  int32
	wave int32
}

// builders is the free list of decode scratch. A sync.Pool would not
// do: once no analysis pins its graph, a process's live heap is a few
// MB, the GC runs often, and a pool it empties makes nearly every
// Recover regrow its arena from scratch. The list keeps at most
// GOMAXPROCS builders, each sized for the largest image it has
// decoded, so the retained scratch is bounded by GOMAXPROCS × the
// largest image decoded so far: about 52 bytes per instruction plus 4
// bytes per byte of code.
var builders struct {
	sync.Mutex
	free []*builder
}

func getBuilder(bin *elff.Binary, budget int) *builder {
	var b *builder
	builders.Lock()
	if n := len(builders.free); n > 0 {
		b = builders.free[n-1]
		builders.free[n-1] = nil
		builders.free = builders.free[:n-1]
	}
	builders.Unlock()
	if b == nil {
		b = new(builder)
	}
	b.bin = bin
	b.base = bin.Base
	b.code = int(bin.CodeSize)
	b.budget = budget
	b.decoded = 0
	b.decodeFailures = 0
	b.arena = b.arena[:0]
	b.activeList = b.activeList[:0]
	b.stack = b.stack[:0]
	b.off2idx = resize(b.off2idx, b.code)
	b.leader.clearTo(b.code)
	b.active.clearTo(b.code)
	b.visited.clearTo(0)
	if len(bin.Imports) > 0 {
		b.slotImport = make(map[uint64]int32, len(bin.Imports))
		for i, im := range bin.Imports {
			b.slotImport[im.SlotAddr] = int32(i)
		}
	} else {
		b.slotImport = nil
	}
	return b
}

func putBuilder(b *builder) {
	b.bin = nil
	b.slotImport = nil
	// Names point into the image. Only the last inferFunctions wrote
	// entries, all below the length; earlier ones cleared theirs here.
	clear(b.entries)
	builders.Lock()
	if len(builders.free) < runtime.GOMAXPROCS(0) {
		builders.free = append(builders.free, b)
	}
	builders.Unlock()
}

// insnAt returns the arena index of the instruction starting at addr,
// or -1.
func (b *builder) insnAt(addr uint64) int32 {
	if addr < b.base {
		return -1
	}
	off := addr - b.base
	if off >= uint64(b.code) {
		return -1
	}
	return b.off2idx[off] - 1
}

// traverse decodes instructions reachable from the given addresses via
// direct control flow, recording block leaders.
func (b *builder) traverse(starts ...uint64) error {
	work := b.work[:0]
	for _, s := range starts {
		if b.bin.CodeContains(s) {
			b.leader.set(int(s - b.base))
			work = append(work, s)
		}
	}
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if !b.bin.CodeContains(addr) {
				break
			}
			if b.off2idx[addr-b.base] != 0 {
				break
			}
			if b.decoded >= b.budget {
				b.work = work[:0]
				return ErrBudget
			}
			// Decode straight into the next arena slot, and give it
			// back when the bytes do not decode.
			buf, _ := b.bin.BytesAt(addr)
			n := len(b.arena)
			b.arena = slices.Grow(b.arena, 1)[:n+1]
			inst := &b.arena[n]
			if err := x86.Decode(inst, buf, addr); err != nil {
				// Undecodable bytes end the path (data reached or
				// padding); the block formed so far stays valid.
				b.arena = b.arena[:n]
				b.decodeFailures++
				break
			}
			b.off2idx[addr-b.base] = int32(n + 1)
			b.decoded++

			if tgt, ok := inst.BranchTarget(); ok && b.bin.CodeContains(tgt) {
				b.leader.set(int(tgt - b.base))
				work = append(work, tgt)
			}
			if !inst.EndsBlock() {
				addr = inst.Next()
				continue
			}
			if next := inst.Next(); inst.FallsThrough() && b.bin.CodeContains(next) {
				b.leader.set(int(next - b.base))
				work = append(work, next)
			}
			break
		}
	}
	b.work = work[:0]
	return nil
}

// importTarget resolves a call/jmp through [rip+slot] against the
// import table, returning the import's index in bin.Imports.
func (b *builder) importTarget(inst *x86.Inst) (int32, bool) {
	if b.slotImport == nil || !inst.IsIndirect() {
		return 0, false
	}
	ea, ok := inst.MemEA(inst.Dst)
	if !ok {
		return 0, false
	}
	i, ok := b.slotImport[ea]
	return i, ok
}

// fixpoint runs the incremental §4.3 refinement: a depth-first
// instruction-level reachability walk from the roots. Visiting a lea
// whose memory operand lands in code activates that address —
// decoding the region on the spot — and activated targets become
// reachable through any already-visited indirect transfer.
// Reachability is monotone (code, leaders and active addresses only
// grow), so every instruction is visited at most once across the whole
// refinement; the old build-blocks-per-round loop recomputed all of it
// every round.
//
// The walk steps to an unvisited fall-through directly instead of
// pushing it: pushed last, it would be popped next, so the visit order
// and the waves are those of the plain stack walk. The fall-through is
// usually the next arena slot, since traverse decodes straight-line
// code in address order; off2idx finds it otherwise.
func (b *builder) fixpoint(roots, dataPtrs []uint64) error {
	// Data pointers are conservatively active from the start.
	for _, p := range dataPtrs {
		if b.active.set(int(p - b.base)) {
			b.activeList = append(b.activeList, p)
		}
	}

	b.visited.growTo(len(b.arena))
	push := func(addr uint64, wave int32) {
		if idx := b.insnAt(addr); idx >= 0 && b.visited.set(int(idx)) {
			b.stack = append(b.stack, fixEnt{idx: idx, wave: wave})
		}
	}
	for _, r := range roots {
		push(r, 0)
	}

	hasIndirect := false
	for len(b.stack) > 0 {
		ent := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		for {
			inst := &b.arena[ent.idx]
			switch inst.Op {
			case x86.OpLea:
				// Activate a code pointer: decode its region (the arena
				// and the visited set grow in place) and, when an
				// indirect transfer is already reachable, schedule it.
				ea, ok := b.leaTarget(inst)
				if !ok || !b.active.set(int(ea-b.base)) {
					break
				}
				b.activeList = append(b.activeList, ea)
				if err := b.traverse(ea); err != nil {
					return err
				}
				inst = &b.arena[ent.idx] // traverse may have moved the arena
				b.visited.growTo(len(b.arena))
				if hasIndirect {
					if ent.wave+1 >= maxRounds {
						return fmt.Errorf("cfg: no fixpoint after %d rounds", maxRounds)
					}
					push(ea, ent.wave+1)
				}
			case x86.OpCall, x86.OpJmp, x86.OpJcc:
				push(uint64(inst.Imm), ent.wave)
			case x86.OpCallInd, x86.OpJmpInd:
				if _, imported := b.importTarget(inst); !imported && !hasIndirect {
					// Not an import's: its targets are the active set.
					// Every address activated so far becomes a
					// potential indirect target; later activations
					// schedule themselves.
					hasIndirect = true
					for _, ea := range b.activeList {
						push(ea, ent.wave+1)
					}
				}
			}
			if !inst.FallsThrough() {
				break
			}
			next := inst.Next()
			idx := ent.idx + 1
			if int(idx) >= len(b.arena) || b.arena[idx].Addr != next {
				idx = b.insnAt(next)
			}
			if idx < 0 || !b.visited.set(int(idx)) {
				break
			}
			ent.idx = idx
		}
	}
	// Note: newly activated addresses found once an indirect transfer
	// is reachable are pushed immediately, so the cascade above always
	// drains completely; activations with no reachable indirect
	// transfer stay decoded-but-unreachable, exactly as in the batch
	// loop.
	return nil
}

// leaTarget returns the code address lea's memory operand computes:
// the code pointers the §4.3 refinement activates.
func (b *builder) leaTarget(lea *x86.Inst) (uint64, bool) {
	ea, ok := lea.MemEA(lea.Src)
	return ea, ok && b.bin.CodeContains(ea)
}

// materialize builds the final immutable graph in one pass over the
// address-ordered arena: four slabs (instructions, blocks, out-edges,
// in-edges), each allocated once at its exact size, whatever the size
// of the binary. Edge targets resolve through two flat arrays (code
// offset → arena index → block), never through a hash map.
func (b *builder) materialize(g *Graph) {
	// Address-ordered arena: the only copy of the decoded
	// instructions the graph keeps, gathered in one walk over the code
	// offsets that also cuts the blocks. A block starts at a leader,
	// after a block-ending instruction, and after a gap. off2idx is
	// rewritten to point into the slab, and blockOf indexes it, so edge
	// wiring looks targets up in O(1).
	insns := make([]x86.Inst, len(b.arena))
	starts := b.blockStarts[:0]
	n := 0
	open := false
	var prevEnd uint64
	for off := 0; off < b.code; off++ {
		idx := b.off2idx[off]
		if idx == 0 {
			continue
		}
		in := &b.arena[idx-1]
		if !open || in.Addr != prevEnd || b.leader.has(off) {
			starts = append(starts, int32(n))
		}
		insns[n] = *in
		n++
		b.off2idx[off] = int32(n)
		prevEnd = in.Next()
		open = !in.EndsBlock()
	}
	insns = insns[:n]
	g.insns = insns
	b.blockStarts = starts

	numBlocks := len(starts)
	blocks := make([]Block, numBlocks+1)
	b.blockOf = resize(b.blockOf, len(insns))
	for k, start := range starts {
		blocks[k] = Block{Addr: insns[start].Addr, ID: BlockID(k), insn: start}
		b.blockOf[start] = int32(k + 1)
	}
	blocks[numBlocks] = Block{ID: BlockID(numBlocks), insn: int32(len(insns))}
	g.blocks = blocks

	// Active address-taken blocks, in address order: the indirect-edge
	// targets. The sorted copy doubles as Graph.ActiveAddrTaken.
	activeAddrs := slices.Clone(b.activeList)
	slices.Sort(activeAddrs)
	g.ActiveAddrTaken = activeAddrs
	active := b.activeIDs[:0]
	for _, ea := range activeAddrs {
		if id := b.blockAt(ea); id >= 0 {
			active = append(active, id)
		}
	}
	b.activeIDs = active

	// One edge pass: out-edges land in block order, so each block's
	// run starts where the previous one's ended. Import labels resolve
	// here too, and the direct call targets are collected for
	// inferFunctions.
	edges := b.edges[:0]
	b.callees = b.callees[:0]
	for k := 0; k < numBlocks; k++ {
		blk := &blocks[k]
		blk.succ = int32(len(edges))
		last := &insns[blocks[k+1].insn-1]
		imp, imported := b.importTarget(last)
		if imported {
			blk.imp = imp + 1
		}
		edges = b.appendEdges(edges, blk.ID, last, last.IsIndirect() && !imported)
	}
	blocks[numBlocks].succ = int32(len(edges))
	b.edges = edges[:0]

	// In-edges: a stable counting sort of the same edges by target, so
	// each block's predecessors keep source-ID order, then the source's
	// edge order. predAt turns from counts into cursors.
	predAt := resize(b.predAt, numBlocks+1)
	for _, e := range edges {
		predAt[e.To]++
	}
	slab := make([]Edge, 2*len(edges))
	succs, preds := slab[:len(edges):len(edges)], slab[len(edges):]
	copy(succs, edges)
	pos := int32(0)
	for k := range blocks {
		d := predAt[k]
		blocks[k].pred = pos
		predAt[k] = pos
		pos += d
	}
	for _, e := range succs {
		preds[predAt[e.To]] = e
		predAt[e.To]++
	}
	b.predAt = predAt
	g.succs, g.preds = succs, preds
	g.Stats.NumEdges = len(edges)
}

// appendEdges appends the out-edges of block from, whose last
// instruction is last, that have a target block, in wiring order: the
// direct branch target, the fan-out of an indirect call or jump (when
// fanOut) to the active address-taken blocks, then the fall-through (a
// call's return site). A direct call's target block also goes to
// b.callees.
func (b *builder) appendEdges(edges []Edge, from BlockID, last *x86.Inst, fanOut bool) []Edge {
	if tgt, ok := last.BranchTarget(); ok {
		kind := EdgeJump
		if last.Op == x86.OpCall {
			kind = EdgeCall
		}
		if to := b.blockAt(tgt); to >= 0 {
			edges = append(edges, Edge{Kind: kind, From: from, To: to})
			if kind == EdgeCall {
				b.callees = append(b.callees, to)
			}
		}
	}
	if fanOut {
		kind := EdgeIndirectJump
		if last.Op == x86.OpCallInd {
			kind = EdgeIndirectCall
		}
		for _, to := range b.activeIDs {
			edges = append(edges, Edge{Kind: kind, From: from, To: to})
		}
	}
	if last.FallsThrough() {
		kind := EdgeFall
		if last.IsCall() {
			kind = EdgeCallFall
		}
		if to := b.blockAt(last.Next()); to >= 0 {
			edges = append(edges, Edge{Kind: kind, From: from, To: to})
		}
	}
	return edges
}

// blockAt returns the ID of the materialized block starting at addr,
// or -1. Valid from materialize on, once off2idx points into the
// address-ordered arena.
func (b *builder) blockAt(addr uint64) BlockID {
	idx := b.insnAt(addr)
	if idx < 0 {
		return -1
	}
	return BlockID(b.blockOf[idx] - 1)
}

// resize returns s with length n and every element zero, reusing its
// capacity.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// funcEntry is one candidate function entry during inference. rank
// orders the naming phases (symbols, exports, roots, active addresses,
// call targets) so the first non-empty name in phase order wins,
// deterministically.
type funcEntry struct {
	addr uint64
	name string
	rank uint8
}

// inferFunctions derives function boundaries: entries are symbols,
// exports, roots, direct call targets and active addresses taken; block
// membership follows the nearest-preceding-entry rule.
func (b *builder) inferFunctions(g *Graph) {
	ents := b.entries[:0]
	add := func(addr uint64, name string, rank uint8) {
		if b.blockAt(addr) < 0 {
			return
		}
		ents = append(ents, funcEntry{addr: addr, name: name, rank: rank})
	}
	for name, addr := range g.Bin.Symbols {
		add(addr, name, 0)
	}
	for _, e := range g.Bin.Exports {
		add(e.Addr, e.Name, 1)
	}
	for _, r := range g.Roots {
		add(r, "", 2)
	}
	for _, ea := range g.ActiveAddrTaken {
		add(ea, "", 3)
	}
	blocks := g.Blocks()
	for _, id := range b.callees {
		ents = append(ents, funcEntry{addr: blocks[id].Addr, rank: 4})
	}
	slices.SortFunc(ents, func(a, c funcEntry) int {
		if a.addr != c.addr {
			return cmp.Compare(a.addr, c.addr)
		}
		if a.rank != c.rank {
			return cmp.Compare(a.rank, c.rank)
		}
		return cmp.Compare(a.name, c.name)
	})
	b.entries = ents // keep the grown buffer for the next Recover

	// Collapse duplicates: one function per address, named by the
	// first non-empty candidate in phase order.
	n := 0
	for i := 0; i < len(ents); {
		j := i
		name := ""
		for ; j < len(ents) && ents[j].addr == ents[i].addr; j++ {
			if name == "" {
				name = ents[j].name
			}
		}
		ents[n] = funcEntry{addr: ents[i].addr, name: name}
		n++
		i = j
	}
	ents = ents[:n]

	// Nearest-preceding-entry membership: every entry starts a block
	// and the blocks are in address order, so a function owns the
	// blocks from its entry's up to the next entry's.
	funcs := make([]Func, len(ents))
	for i, e := range ents {
		funcs[i] = Func{Entry: e.addr, Name: e.name, First: b.blockAt(e.addr), End: BlockID(len(blocks))}
		if i > 0 {
			funcs[i-1].End = funcs[i].First
		}
	}
	g.Funcs = funcs
}

// scanDataPointers finds little-endian quads in the data region that
// land inside the code region. The scan probes every 4-byte boundary,
// not every 8-byte one: pointer tables are not required to sit at
// 8-aligned addresses (a table preceded by a 4-byte field is packed to
// 4-mod-8 slots), and a slot the scan cannot see is a handler the
// refinement never activates — a soundness hole, not an imprecision
// (found by the fuzzer as a missed runtime syscall; the repro is
// internal/fuzzer/testdata/regressions/packed-table-blindness.json).
// Overlapping windows can both hit code; the activation set dedups.
func scanDataPointers(bin *elff.Binary) []uint64 {
	var out []uint64
	start := bin.CodeSize
	// Align to the next 4-byte boundary relative to the base address.
	for (bin.Base+start)%4 != 0 {
		start++
	}
	for off := start; off+8 <= uint64(len(bin.Blob)); off += 4 {
		v := uint64(bin.Blob[off]) | uint64(bin.Blob[off+1])<<8 |
			uint64(bin.Blob[off+2])<<16 | uint64(bin.Blob[off+3])<<24 |
			uint64(bin.Blob[off+4])<<32 | uint64(bin.Blob[off+5])<<40 |
			uint64(bin.Blob[off+6])<<48 | uint64(bin.Blob[off+7])<<56
		if bin.CodeContains(v) {
			out = append(out, v)
		}
	}
	return out
}

// offBits is a plain dense bitset over small integer indices (code
// offsets, arena indices). Unlike BlockSet it carries no element count
// and never grows implicitly — reset sizes it for the domain.
type offBits struct {
	words []uint64
}

// clearTo resizes the bitset for n bits with every bit clear.
func (s *offBits) clearTo(n int) {
	w := (n + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w)
		return
	}
	s.words = s.words[:w]
	clear(s.words)
}

// growTo widens the bitset to n bits, keeping already-set bits (the
// fixpoint's visited set grows with the arena).
func (s *offBits) growTo(n int) {
	w := (n + 63) / 64
	if w <= len(s.words) {
		return
	}
	if cap(s.words) >= w {
		old := len(s.words)
		s.words = s.words[:w]
		clear(s.words[old:])
		return
	}
	words := make([]uint64, w, w+w/2)
	copy(words, s.words)
	s.words = words
}

// set marks bit i and reports whether it was previously clear.
func (s *offBits) set(i int) bool {
	w, bit := i/64, uint64(1)<<(i%64)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	return true
}

// has reports whether bit i is set.
func (s *offBits) has(i int) bool {
	w := i / 64
	return s.words[w]&(1<<(i%64)) != 0
}
