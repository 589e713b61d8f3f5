package ident

import (
	"slices"

	"bside/internal/cfg"
	"bside/internal/linux"
	"bside/internal/symex"
	"bside/internal/x86"
)

// searchScratch is the reusable working set of one backward search:
// the directed set handed to the symbolic executor, the BFS visited
// set, a dedup set for predecessor enumeration, the frontier slices
// (block IDs, so a pooled bundle pins no graph), and the value
// accumulator. Bundles come from scratchPool, so the per-site cost is
// a handful of Resets instead of a handful of maps.
type searchScratch struct {
	directed cfg.BlockSet
	visited  cfg.BlockSet
	predSeen cfg.BlockSet
	pending  []cfg.BlockID
	next     []cfg.BlockID
	preds    []cfg.BlockID
	values   linux.SyscallBitset
}

// getScratch returns an empty search bundle sized for a graph of
// numBlocks blocks.
func getScratch(numBlocks int) *searchScratch {
	s := scratchPool.Get().(*searchScratch)
	s.directed.ResetFor(numBlocks)
	s.visited.ResetFor(numBlocks)
	s.predSeen.ResetFor(numBlocks)
	s.values = linux.SyscallBitset{}
	return s
}

// putScratch returns s to the pool.
func putScratch(s *searchScratch) {
	s.pending, s.next, s.preds = s.pending[:0], s.next[:0], s.preds[:0]
	scratchPool.Put(s)
}

// identify implements the search of Figure 5: starting from the target
// block (which resolves Figure 1-A cases by itself), predecessors are
// explored breadth-first; each frontier node seeds a forward symbolic
// execution directed at the target through the nodes the backward
// search has already visited. A frontier node all of whose directed
// paths reach the target with a concrete value is *immediate-defining*
// and its own predecessors are pruned from the search.
//
// If param is nil the queried value is %rax before the target's syscall
// instruction; otherwise it is the given wrapper parameter before the
// target's call instruction.
func (p *Pass) identify(target *cfg.Block, param *symex.ParamRef) SiteResult {
	res := SiteResult{Addr: p.g.Last(target).Addr, Block: target}
	sc := getScratch(p.g.NumBlocks())

	query := func(st *symex.State) symex.Value {
		if param == nil {
			return st.Reg(x86.RAX)
		}
		return symex.ParamValueAtCall(st, *param)
	}

	// evaluate runs forward from `from`, folds the observed values, and
	// reports whether every path reached the target with a concrete one.
	// A site state arrives before the run knows whether it will exhaust
	// the budget, so its constants wait in found until the run is over.
	evaluate := func(from *cfg.Block) bool {
		var found linux.SyscallBitset
		reached, all := false, true
		run := p.machine.RunToSite(from, p.machine.NewState(), &sc.directed, target, func(st *symex.State) {
			reached = true
			if k, ok := query(st).IsConst(); ok {
				// A constant at or above linux.SyscallSetBits is an
				// address or an artifact, not a syscall: Add drops it
				// here, the one place a site's values are collected.
				found.Add(k)
			} else {
				all = false
			}
		})
		res.BlocksExplored += run.BlocksExecuted
		if run.HitBudget {
			res.FailOpen = true
			return false
		}
		sc.values.Union(&found)
		return reached && all
	}

	// The target block itself first (Figure 1-A: the defining immediate
	// shares the block with the syscall).
	selfConcrete := evaluate(target)

	if !selfConcrete && !res.FailOpen {
		sc.visited.Add(target.ID)
		sc.pending = p.predBlocksInto(target, &sc.predSeen, sc.pending)
		if len(sc.pending) == 0 {
			// Nothing above the target can define the value.
			res.FailOpen = true
		}
		frontier := 0

		for depth := 1; len(sc.pending) > 0 && depth <= maxBFSDepth; depth++ {
			sc.next = sc.next[:0]
			for _, id := range sc.pending {
				if !sc.visited.Add(id) {
					continue
				}
				blk := p.g.Block(id)
				frontier++
				if frontier > maxFrontier {
					res.FailOpen = true
					break
				}
				sc.directed.Add(id)
				allConcrete := evaluate(blk)
				if res.FailOpen {
					break
				}
				if allConcrete {
					// Immediate-defining: prune this path.
					continue
				}
				sc.preds = p.predBlocksInto(blk, &sc.predSeen, sc.preds[:0])
				if len(sc.preds) == 0 {
					// The search ran off the top of the program (or an
					// unreferenced root) without bounding the value.
					res.FailOpen = true
					break
				}
				sc.next = append(sc.next, sc.preds...)
			}
			if res.FailOpen {
				break
			}
			sc.pending, sc.next = sc.next, sc.pending
			if len(sc.pending) > 0 && depth == maxBFSDepth {
				res.FailOpen = true
			}
		}
	}

	res.Syscalls = sc.values.Append(make([]uint64, 0, sc.values.Len()))
	putScratch(sc)
	return res
}

// predBlocksInto appends the deduplicated predecessor blocks of b
// across every edge kind (fall, jump, call, call-fall, indirect) to
// out, in ascending address (= ID) order, skipping indirect
// predecessors the resolver has excluded. seen is caller-owned
// scratch; it is reset here.
func (p *Pass) predBlocksInto(b *cfg.Block, seen *cfg.BlockSet, out []cfg.BlockID) []cfg.BlockID {
	seen.Reset()
	start := len(out)
	for _, e := range p.g.Preds(b) {
		if e.From == b.ID || !p.allowEdge(e) || !seen.Add(e.From) {
			continue
		}
		out = append(out, e.From)
	}
	slices.Sort(out[start:])
	return out
}
