package cfg

import (
	"fmt"
	"runtime"
	"sort"
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
// (lea-carried code pointers are harvested at decode time, newly
// activated regions are traversed exactly once, and reachability never
// restarts), and the final graph is materialized once at the fixpoint
// from pre-counted slabs — Block.Insns are zero-copy views into the
// address-ordered arena.
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
	iterations, err := b.fixpoint(roots, dataPtrs)
	if err != nil {
		return nil, err
	}

	g := &Graph{Bin: bin, Roots: roots}
	g.Stats.Iterations = iterations
	b.materialize(g)
	b.inferFunctions(g)
	g.Stats.DecodedInsns = b.decoded
	g.Stats.NumBlocks = len(g.sortedBlocks)
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
	// code offset to its arena index + 1 (0 = not decoded). leaEA is
	// parallel to arena: the in-code target of a lea's memory operand,
	// harvested at decode time and stored as code offset + 1 so 0 can
	// mean "not a code-pointer lea" even for images loaded at virtual
	// address 0 — the candidate worklist of the §4.3 refinement.
	arena   []x86.Inst
	off2idx []int32
	leaEA   []uint64

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

	// slotImport maps GOT slot addresses to import names, built once.
	slotImport map[uint64]string

	// Finalization scratch, reused across calls: per-block start
	// indices, the block index (blockOf: block ID + 1 at the
	// address-ordered arena index of each block's first instruction, 0
	// elsewhere) and per-block edge degree counters. blocks is the slab
	// being materialized, held only until Recover returns.
	blockStarts []int32
	blockOf     []int32
	blocks      []Block
	succDeg     []int32
	predDeg     []int32
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
// largest image decoded so far: about 57 bytes per instruction plus 4
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
	b.leaEA = b.leaEA[:0]
	b.activeList = b.activeList[:0]
	b.stack = b.stack[:0]
	b.off2idx = resize(b.off2idx, b.code)
	b.leader.clearTo(b.code)
	b.active.clearTo(b.code)
	b.visited.clearTo(0)
	if len(bin.Imports) > 0 {
		b.slotImport = make(map[uint64]string, len(bin.Imports))
		for _, im := range bin.Imports {
			b.slotImport[im.SlotAddr] = im.Name
		}
	} else {
		b.slotImport = nil
	}
	return b
}

func putBuilder(b *builder) {
	b.bin = nil
	b.slotImport = nil
	b.blocks = nil
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
// direct control flow, recording block leaders and harvesting
// lea-carried code pointers into the candidate arena.
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
			buf, _ := b.bin.BytesAt(addr)
			inst, err := x86.Decode(buf, addr)
			if err != nil {
				// Undecodable bytes end the path (data reached or
				// padding); the block formed so far stays valid.
				b.decodeFailures++
				break
			}
			b.arena = append(b.arena, inst)
			b.off2idx[addr-b.base] = int32(len(b.arena))
			var leaOff uint64 // code offset + 1; 0 = none
			if inst.Op == x86.OpLea {
				if e, ok := inst.MemEA(inst.Src); ok && b.bin.CodeContains(e) {
					leaOff = e - b.base + 1
				}
			}
			b.leaEA = append(b.leaEA, leaOff)
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
// import table.
func (b *builder) importTarget(inst x86.Inst) (string, bool) {
	if b.slotImport == nil || !inst.IsIndirect() {
		return "", false
	}
	ea, ok := inst.MemEA(inst.Dst)
	if !ok {
		return "", false
	}
	name, ok := b.slotImport[ea]
	return name, ok
}

// fixpoint runs the incremental §4.3 refinement: a depth-first
// instruction-level reachability walk from the roots. Visiting a
// harvested lea candidate activates its target — decoding the region
// on the spot — and activated targets become reachable through any
// already-visited indirect transfer. Reachability is monotone (code,
// leaders and active addresses only grow), so every instruction is
// visited at most once across the whole refinement; the old
// build-blocks-per-round loop recomputed all of it every round.
//
// The returned iteration count is the activation cascade depth + 1:
// the incremental equivalent of the old loop's round counter.
func (b *builder) fixpoint(roots, dataPtrs []uint64) (int, error) {
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
	maxWave := int32(0)
	for len(b.stack) > 0 {
		ent := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		inst := b.arena[ent.idx]

		// Activate a harvested code pointer: decode its region (the
		// arena and the visited set grow in place) and, when an
		// indirect transfer is already reachable, schedule it.
		if v := b.leaEA[ent.idx]; v != 0 && b.active.set(int(v-1)) {
			ea := b.base + v - 1
			b.activeList = append(b.activeList, ea)
			if err := b.traverse(ea); err != nil {
				return 0, err
			}
			b.visited.growTo(len(b.arena))
			if hasIndirect {
				if ent.wave+1 > maxWave {
					maxWave = ent.wave + 1
					if int(maxWave)+1 > maxRounds {
						return 0, fmt.Errorf("cfg: no fixpoint after %d rounds", maxRounds)
					}
				}
				push(ea, ent.wave+1)
			}
		}

		indirect := func() {
			if hasIndirect {
				return
			}
			hasIndirect = true
			// Every address activated so far becomes a potential
			// indirect target; later activations schedule themselves.
			for _, ea := range b.activeList {
				push(ea, ent.wave+1)
			}
			if ent.wave+1 > maxWave {
				maxWave = ent.wave + 1
			}
		}

		if tgt, ok := inst.BranchTarget(); ok {
			push(tgt, ent.wave)
		}
		if _, imported := b.importTarget(inst); inst.IsIndirect() && !imported {
			indirect() // not an import's: its targets are the active set
		}
		if inst.FallsThrough() {
			push(inst.Next(), ent.wave)
		}
	}
	// Note: newly activated addresses found once an indirect transfer
	// is reachable are pushed immediately, so the cascade above always
	// drains completely; activations with no reachable indirect
	// transfer stay decoded-but-unreachable, exactly as in the batch
	// loop.
	return int(maxWave) + 1, nil
}

// materialize builds the final immutable graph in one pass over the
// address-ordered arena: blocks and edges are pre-counted and carved
// from slabs, so the build cost is a handful of allocations however
// large the binary. Edge targets resolve through two flat arrays
// (code offset → arena index → block), never through a hash map.
func (b *builder) materialize(g *Graph) {
	// Address-ordered arena: the only copy of the decoded
	// instructions the graph keeps. off2idx is rewritten to point into
	// it, and blockOf indexes it, so edge wiring looks targets up in
	// O(1).
	final := make([]x86.Inst, len(b.arena))
	n := 0
	for off := 0; off < b.code; off++ {
		if idx := b.off2idx[off]; idx != 0 {
			final[n] = b.arena[idx-1]
			n++
			b.off2idx[off] = int32(n)
		}
	}
	final = final[:n]

	// Pass 1: block boundaries.
	b.blockStarts = b.blockStarts[:0]
	var prevEnd uint64
	open := false
	for i := range final {
		in := &final[i]
		if !open || b.leader.has(int(in.Addr-b.base)) || in.Addr != prevEnd {
			b.blockStarts = append(b.blockStarts, int32(i))
			open = true
		}
		prevEnd = in.Next()
		if in.EndsBlock() {
			open = false
		}
	}

	numBlocks := len(b.blockStarts)
	blocks := make([]Block, numBlocks)
	sorted := make([]*Block, numBlocks)
	b.blocks = blocks
	b.blockOf = resize(b.blockOf, len(final))
	g.ImportStubs = make(map[uint64]string)
	for k := range blocks {
		start := int(b.blockStarts[k])
		end := len(final)
		if k+1 < numBlocks {
			end = int(b.blockStarts[k+1])
		}
		blk := &blocks[k]
		blk.Addr = final[start].Addr
		blk.Insns = final[start:end:end]
		blk.ID = k
		sorted[k] = blk
		b.blockOf[start] = int32(k + 1)
	}
	g.sortedBlocks = sorted

	// Active address-taken blocks, in address order: the indirect-edge
	// targets. The sorted copy doubles as Graph.ActiveAddrTaken.
	activeAddrs := append([]uint64(nil), b.activeList...)
	sort.Slice(activeAddrs, func(i, j int) bool { return activeAddrs[i] < activeAddrs[j] })
	g.ActiveAddrTaken = activeAddrs
	activeBlocks := make([]*Block, 0, len(activeAddrs))
	for _, ea := range activeAddrs {
		if blk := b.blockAt(ea); blk != nil {
			activeBlocks = append(activeBlocks, blk)
		}
	}

	// Pass 2: resolve import labels and count edge degrees.
	b.succDeg = resize(b.succDeg, numBlocks)
	b.predDeg = resize(b.predDeg, numBlocks)
	totalEdges := 0
	count := func(_ EdgeKind, from, to *Block) {
		b.succDeg[from.ID]++
		b.predDeg[to.ID]++
		totalEdges++
	}
	for _, blk := range sorted {
		if name, ok := b.importTarget(blk.Last()); ok {
			blk.ImportCall = name
			if blk.Last().Op == x86.OpJmpInd {
				g.ImportStubs[blk.Addr] = name
			}
		}
		b.eachEdge(blk, activeBlocks, count)
	}

	// Pass 3: carve Succs/Preds from two slabs and wire the same edges
	// in the same order.
	succSlab := make([]Edge, 0, totalEdges)
	predSlab := make([]Edge, 0, totalEdges)
	for _, blk := range sorted {
		d := int(b.succDeg[blk.ID])
		blk.Succs = succSlab[len(succSlab) : len(succSlab) : len(succSlab)+d]
		succSlab = succSlab[:len(succSlab)+d]
		d = int(b.predDeg[blk.ID])
		blk.Preds = predSlab[len(predSlab) : len(predSlab) : len(predSlab)+d]
		predSlab = predSlab[:len(predSlab)+d]
	}
	wire := func(kind EdgeKind, from, to *Block) {
		e := Edge{Kind: kind, From: from, To: to}
		from.Succs = append(from.Succs, e)
		to.Preds = append(to.Preds, e)
	}
	for _, blk := range sorted {
		b.eachEdge(blk, activeBlocks, wire)
	}
	g.Stats.NumEdges = totalEdges
}

// eachEdge calls f on each out-edge of blk whose target block exists,
// in wiring order: the direct branch target, the fan-out of an
// indirect call or jump to the active address-taken blocks, then the
// fall-through (a call's return site). Both the count and the wire
// pass enumerate edges here, so they cannot disagree and overflow the
// pre-counted slabs.
func (b *builder) eachEdge(blk *Block, active []*Block, f func(kind EdgeKind, from, to *Block)) {
	last := blk.Last()
	if tgt, ok := last.BranchTarget(); ok {
		kind := EdgeJump
		if last.Op == x86.OpCall {
			kind = EdgeCall
		}
		if to := b.blockAt(tgt); to != nil {
			f(kind, blk, to)
		}
	}
	if _, imported := b.importTarget(last); last.IsIndirect() && !imported {
		kind := EdgeIndirectJump
		if last.Op == x86.OpCallInd {
			kind = EdgeIndirectCall
		}
		for _, t := range active {
			f(kind, blk, t)
		}
	}
	if last.FallsThrough() {
		kind := EdgeFall
		if last.IsCall() {
			kind = EdgeCallFall
		}
		if to := b.blockAt(last.Next()); to != nil {
			f(kind, blk, to)
		}
	}
}

// blockAt returns the materialized block starting at addr, or nil.
// Valid from materialize on, once off2idx points into the
// address-ordered arena.
func (b *builder) blockAt(addr uint64) *Block {
	idx := b.insnAt(addr)
	if idx < 0 {
		return nil
	}
	if id := b.blockOf[idx]; id != 0 {
		return &b.blocks[id-1]
	}
	return nil
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
		if b.blockAt(addr) == nil {
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
	for _, blk := range g.sortedBlocks {
		if last := blk.Last(); last.Op == x86.OpCall {
			add(uint64(last.Imm), "", 4)
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		a, c := ents[i], ents[j]
		if a.addr != c.addr {
			return a.addr < c.addr
		}
		if a.rank != c.rank {
			return a.rank < c.rank
		}
		return a.name < c.name
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

	funcs := make([]Func, len(ents))
	g.Funcs = make([]*Func, len(ents))
	for i, e := range ents {
		f := &funcs[i]
		f.Entry = e.addr
		f.Name = e.name
		g.Funcs[i] = f
	}
	if len(funcs) == 0 {
		return
	}
	// Nearest-preceding-entry membership over one merge walk: both the
	// blocks and the entries are address-sorted. Count first, then
	// carve the per-function block lists from one slab.
	counts := b.succDeg[:0] // reuse the degree buffer as scratch
	for range funcs {
		counts = append(counts, 0)
	}
	assigned := 0
	fi := -1
	for _, blk := range g.sortedBlocks {
		for fi+1 < len(funcs) && funcs[fi+1].Entry <= blk.Addr {
			fi++
		}
		if fi >= 0 {
			counts[fi]++
			assigned++
		}
	}
	slab := make([]*Block, 0, assigned)
	for i := range funcs {
		d := int(counts[i])
		funcs[i].Blocks = slab[len(slab) : len(slab) : len(slab)+d]
		slab = slab[:len(slab)+d]
	}
	fi = -1
	for _, blk := range g.sortedBlocks {
		for fi+1 < len(funcs) && funcs[fi+1].Entry <= blk.Addr {
			fi++
		}
		if fi >= 0 {
			funcs[fi].Blocks = append(funcs[fi].Blocks, blk)
		}
	}
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
