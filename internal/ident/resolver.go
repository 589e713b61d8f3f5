// Layered indirect-call resolution (ROADMAP's precision push, in the
// spirit of iResolveX): instead of letting every indirect call/jump
// site fan out to the whole active address-taken set, each site gets a
// per-site candidate-target set refined by cheap static layers.
//
//   - Layer 1 (provenance): the dispatched value is chased through the
//     use-define chain, extended with 8-byte loads from immutable
//     memory — read-only data sections and RELATIVE-relocated slots.
//     A site whose operand resolves to concrete code addresses is
//     narrowed to exactly those targets.
//   - Layer 2 (call signature): at the program-entry dispatch window —
//     before any call instruction, where the ABI says no argument
//     register carries a deliberate value — candidates whose entry
//     block reads an argument register nobody may have written are
//     pruned.
//
// Soundness is by construction: any failure to refine (unresolvable
// operand, writable slot, a value the CFG did not wire, a pruned-empty
// candidate set) falls back to the unrestricted fan-out for that site.
// The refinement is expressed as an edge filter over the frozen graph
// (cfg.Graph.ReachableSetFiltered), never as graph mutation.
package ident

import (
	"bside/internal/cfg"
	"bside/internal/usedef"
	"bside/internal/x86"
)

// allArgs holds the six System V integer argument registers.
const allArgs = x86.RegSet(1<<x86.RDI | 1<<x86.RSI | 1<<x86.RDX | 1<<x86.RCX | 1<<x86.R8 | 1<<x86.R9)

// resolveIndirectSites builds the per-image candidate-target index:
// site block ID -> refined target set. Sites absent from the map keep
// the unrestricted fan-out. layers is the normalized ResolverLayers
// (>= 1).
func resolveIndirectSites(g *cfg.Graph, layers int) map[cfg.BlockID]*cfg.BlockSet {
	// RELATIVE relocation slots resolve like read-only memory: the
	// loader writes the recorded target at load time and RELRO-style
	// data is never legitimately rewritten after. This is what makes a
	// real binary's .data.rel.ro (writable in its section header,
	// protected by PT_GNU_RELRO after loading) usable as provenance.
	var relocSlots map[uint64]uint64
	if len(g.Bin.Relocs) > 0 {
		relocSlots = make(map[uint64]uint64, len(g.Bin.Relocs))
		for _, r := range g.Bin.Relocs {
			relocSlots[r.Slot] = r.Target
		}
	}
	memRead := func(addr uint64) (uint64, bool) {
		if t, ok := relocSlots[addr]; ok {
			return t, true
		}
		return g.Bin.ROU64At(addr)
	}

	sites := make(map[cfg.BlockID]*cfg.BlockSet)
	reqCache := make(map[cfg.BlockID]x86.RegSet) // candidate block ID -> required args
	var universe, cands []cfg.BlockID
	blocks := g.Blocks()
	for i := range blocks {
		blk := &blocks[i]
		last := g.Last(blk)
		if !last.IsIndirect() || g.ImportCall(blk) != "" {
			continue
		}
		op := last.Op
		universe = universe[:0]
		for _, e := range g.Succs(blk) {
			if e.Kind == cfg.EdgeIndirectCall || e.Kind == cfg.EdgeIndirectJump {
				universe = append(universe, e.To)
			}
		}
		if len(universe) == 0 {
			continue
		}
		cands = append(cands[:0], universe...)

		// Layer 1: provenance. Only adopt the resolved set when every
		// resolved address is a target the CFG wired — a value outside
		// the wired set means provenance and CFG disagree, and
		// disagreement falls back.
		if addrs, ok := siteProvenance(g, blk, memRead); ok {
			want := make(map[uint64]bool, len(addrs))
			for _, a := range addrs {
				want[a] = true
			}
			sub := cands[:0]
			matched := 0
			for _, c := range universe {
				if want[g.Block(c).Addr] {
					sub = append(sub, c)
					matched++
				}
			}
			if matched == len(want) {
				cands = sub
			} else {
				cands = append(cands[:0], universe...)
			}
		}

		// Layer 2: call-signature compatibility, only at the one spot
		// where "nobody provided this argument" is provable — see
		// providedArgs. An empty pruned set means the layers disagree;
		// keep the pre-prune candidates (sound fallback).
		if layers >= 2 && op == x86.OpCallInd {
			if provided := providedArgs(g, blk); provided != allArgs {
				n := 0
				for _, c := range cands {
					req, ok := reqCache[c]
					if !ok {
						req = requiredArgs(g.Insns(g.Block(c)))
						reqCache[c] = req
					}
					if req&^provided == 0 {
						cands[n] = c
						n++
					}
				}
				if n > 0 {
					cands = cands[:n]
				}
			}
		}

		if len(cands) < len(universe) {
			set := cfg.NewBlockSet(g.NumBlocks())
			for _, c := range cands {
				set.Add(c)
			}
			sites[blk.ID] = set
		}
	}
	if len(sites) == 0 {
		return nil
	}
	return sites
}

// siteProvenance resolves the dispatched value of one indirect
// call/jump site to concrete addresses: register operands through the
// use-define chain (with immutable-memory loads in domain), memory
// operands through a direct immutable read of the concrete slot.
func siteProvenance(g *cfg.Graph, site *cfg.Block, memRead func(uint64) (uint64, bool)) ([]uint64, bool) {
	last := g.Last(site)
	switch last.Dst.Kind {
	case x86.KindReg:
		fn, ok := g.FuncContaining(site.Addr)
		if !ok {
			return nil, false
		}
		vals, ok := usedef.Resolve(usedef.Request{
			Graph:   g,
			Fn:      fn,
			Block:   site,
			InsnIdx: len(g.Insns(site)) - 1,
			Reg:     last.Dst.Reg,
			MemRead: memRead,
		})
		return vals, ok && len(vals) > 0
	case x86.KindMem:
		if ea, ok := last.MemEA(last.Dst); ok {
			if v, ok := memRead(ea); ok {
				return []uint64{v}, true
			}
		}
		// Register-indexed jump tables stay unresolved: the index is
		// data-dependent and the unrestricted fan-out already covers
		// every table entry.
		return nil, false
	}
	return nil, false
}

// providedArgs over-approximates which argument registers MAY carry a
// deliberate value at the site. allArgs means "anything" — the answer
// whenever the walk meets a call, a syscall, control flow from a
// caller, or any shape it cannot account for. A tighter answer is only
// ever produced inside the program-entry function with no callers:
// the one place the ABI pins the incoming register state (at process
// entry the integer argument registers hold nothing deliberate).
func providedArgs(g *cfg.Graph, site *cfg.Block) x86.RegSet {
	const maxBlocks = 64

	fn, ok := g.FuncContaining(site.Addr)
	if !ok || g.Bin.Entry == 0 || fn.Entry != g.Bin.Entry {
		return allArgs
	}

	var provided x86.RegSet
	// scan unions the MAY-writes of a straight-line run; false means
	// the run contains a barrier (call/syscall) past which the
	// register state is unknowable.
	scan := func(insns []x86.Inst) bool {
		for _, in := range insns {
			if in.IsCall() || in.Op == x86.OpSyscall {
				return false
			}
			provided |= in.Writes() & allArgs
		}
		return true
	}

	insns := g.Insns(site)
	if !scan(insns[:len(insns)-1]) {
		return allArgs
	}
	seen := map[cfg.BlockID]bool{site.ID: true}
	stack := []cfg.BlockID{site.ID}
	for len(stack) > 0 {
		b := g.Block(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		preds := g.Preds(b)
		if len(preds) == 0 {
			if b.Addr != fn.Entry {
				return allArgs // flow from nowhere: not accountable
			}
			continue // the program's true start: nothing above
		}
		for _, e := range preds {
			switch e.Kind {
			case cfg.EdgeFall, cfg.EdgeJump, cfg.EdgeCallFall:
			default:
				// A call-kind predecessor means register state flows in
				// from an unaccounted caller.
				return allArgs
			}
			if seen[e.From] {
				continue
			}
			if len(seen) >= maxBlocks {
				return allArgs
			}
			seen[e.From] = true
			// A CallFall predecessor ends in the call itself, so scan
			// hits the barrier and bails — no special case needed.
			if !scan(g.Insns(g.Block(e.From))) {
				return allArgs
			}
			stack = append(stack, e.From)
		}
	}
	return provided
}

// requiredArgs under-approximates which argument registers a
// candidate's entry block, given as its instructions, definitely reads
// before writing. Only fully-modelled instructions extend the window;
// anything else — including the block's terminator — ends it. Keeping
// the answer an under-approximation is what makes pruning on it safe:
// a register is only reported when an incoming value is provably
// observed.
func requiredArgs(entry []x86.Inst) x86.RegSet {
	var req, written x86.RegSet
	for _, in := range entry {
		switch in.Op {
		case x86.OpEndbr64, x86.OpNop:
			continue
		case x86.OpMov, x86.OpMovzxB, x86.OpMovzxW, x86.OpMovsxB, x86.OpMovsxW, x86.OpMovsxd, x86.OpLea,
			x86.OpXor, x86.OpAdd, x86.OpSub, x86.OpAnd, x86.OpOr,
			x86.OpCmp, x86.OpTest, x86.OpShl, x86.OpShr, x86.OpInc,
			x86.OpDec, x86.OpPush, x86.OpPop:
		default:
			return req
		}
		selfZero := in.Op == x86.OpXor && in.Src.Kind == x86.KindReg &&
			in.Dst.Kind == x86.KindReg && in.Src.Reg == in.Dst.Reg
		var reads x86.RegSet
		addRead := func(r x86.Reg) { reads |= x86.RegSetOf(r) }
		if !selfZero {
			switch in.Src.Kind {
			case x86.KindReg:
				addRead(in.Src.Reg)
			case x86.KindMem:
				addRead(in.Src.Reg) // the base register
				addRead(in.Src.Index)
			}
		}
		if in.Dst.Kind == x86.KindMem {
			addRead(in.Dst.Reg)
			addRead(in.Dst.Index)
		}
		if in.Dst.Kind == x86.KindReg && !selfZero {
			switch in.Op {
			case x86.OpAdd, x86.OpSub, x86.OpAnd, x86.OpOr, x86.OpXor,
				x86.OpShl, x86.OpShr, x86.OpInc, x86.OpDec,
				x86.OpCmp, x86.OpTest, x86.OpPush:
				addRead(in.Dst.Reg) // read-modify-write or pure read
			}
		}
		req |= reads & allArgs &^ written
		written |= in.Writes()
	}
	return req
}

// allowEdge is the traversal-time edge filter the resolver's index
// induces: indirect edges from a refined site pass only toward its
// candidates; everything else passes untouched.
func (p *Pass) allowEdge(e cfg.Edge) bool {
	if e.Kind != cfg.EdgeIndirectCall && e.Kind != cfg.EdgeIndirectJump {
		return true
	}
	set, ok := p.siteTargets[e.From]
	if !ok || set == nil {
		return true
	}
	return set.Has(e.To)
}
