package ident

import (
	"sort"

	"bside/internal/cfg"
	"bside/internal/linux"
	"bside/internal/symex"
	"bside/internal/x86"
)

// searchScratch is the reusable working set of one backward search:
// the directed set handed to the symbolic executor, the BFS visited
// set, a dedup set for predecessor enumeration, the frontier slices,
// and the value accumulator. Bundles come from scratchPool, so the
// per-site cost is a handful of Resets instead of a handful of maps.
type searchScratch struct {
	directed cfg.BlockSet
	visited  cfg.BlockSet
	predSeen cfg.BlockSet
	pending  []*cfg.Block
	next     []*cfg.Block
	preds    []*cfg.Block
	values   linux.ValueSet
}

// getScratch returns an empty search bundle sized for a graph of
// numBlocks blocks.
func getScratch(numBlocks int) *searchScratch {
	s := scratchPool.Get().(*searchScratch)
	s.directed.ResetFor(numBlocks)
	s.visited.ResetFor(numBlocks)
	s.predSeen.ResetFor(numBlocks)
	s.values.Reset()
	return s
}

// putScratch returns s to the pool, first clearing every block pointer
// it holds (to capacity: stale entries past the length would pin the
// graph just the same).
func putScratch(s *searchScratch) {
	clear(s.pending[:cap(s.pending)])
	clear(s.next[:cap(s.next)])
	clear(s.preds[:cap(s.preds)])
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
//
// A search that stays within the target's containing function is a pure
// function of that function's content and is served from (and recorded
// into) the configured Memo; see memo.go for the exact gating.
func (p *Pass) identify(target *cfg.Block, param *symex.ParamRef) SiteResult {
	res := SiteResult{Addr: target.Last().Addr, Block: target}

	fn, fnOK := p.g.FuncContaining(target.Addr)
	var memoKey string
	if p.conf.Memo != nil && fnOK {
		memoKey = p.siteMemoKey(fn, target, param)
		if rec, ok := loadRec[siteRec](p.conf.Memo, memoKey); ok {
			if rec.Syscalls == nil {
				rec.Syscalls = []uint64{}
			}
			// The stored slice is shared between hits; every consumer
			// treats site results as read-only. Replaying the recorded
			// budget consumption keeps a tight budget exhausting at the
			// same point as an unmemoized run.
			p.conf.Budget.AddSteps(rec.Steps)
			p.conf.Budget.AddForks(rec.Forks)
			res.Syscalls = rec.Syscalls
			res.FailOpen = rec.FailOpen
			res.BlocksExplored = rec.Blocks
			return res
		}
	}

	sc := getScratch(p.g.NumBlocks())

	// contained tracks whether every block the search touched — the
	// frontier it visited and every predecessor it enumerated — lies in
	// fn; budgetShaped tracks whether the shared budget cut the search.
	// Only contained, budget-clean results are memoizable. steps/forks
	// accumulate this search's own budget consumption for replay.
	contained := fnOK
	budgetShaped := false
	resolverSensitive := false
	steps, forks := 0, 0

	query := func(st *symex.State) symex.Value {
		if param == nil {
			return st.Reg(x86.RAX)
		}
		return symex.ParamValueAtCall(st, *param)
	}

	// evaluate runs forward from `from` and folds the observed values.
	// It returns (allConcrete, reachedSite).
	evaluate := func(from *cfg.Block) (bool, bool) {
		run := p.machine.RunToSite(from, p.machine.NewState(), &sc.directed, target)
		res.BlocksExplored += run.BlocksExecuted
		steps += run.Steps
		forks += run.Forks
		if run.HitBudget {
			res.FailOpen = true
			budgetShaped = true
			hit := len(run.SiteStates) > 0
			p.machine.Release(&run)
			return false, hit
		}
		all := len(run.SiteStates) > 0
		for _, st := range run.SiteStates {
			if k, ok := query(st).IsConst(); ok {
				sc.values.Add(k)
			} else {
				all = false
			}
		}
		hit := len(run.SiteStates) > 0
		p.machine.Release(&run)
		return all, hit
	}

	// The target block itself first (Figure 1-A: the defining immediate
	// shares the block with the syscall).
	selfConcrete, _ := evaluate(target)

	if !selfConcrete && !res.FailOpen {
		sc.visited.Add(target)
		var sawInd bool
		sc.pending, sawInd = p.predBlocksInto(target, &sc.predSeen, sc.pending)
		resolverSensitive = resolverSensitive || sawInd
		if len(sc.pending) == 0 {
			// Nothing above the target can define the value.
			res.FailOpen = true
		}
		if contained {
			contained = p.allInFunc(fn, sc.pending)
		}
		frontier := 0

		for depth := 1; len(sc.pending) > 0 && depth <= p.conf.MaxBFSDepth; depth++ {
			sc.next = sc.next[:0]
			for _, blk := range sc.pending {
				if !sc.visited.Add(blk) {
					continue
				}
				frontier++
				if frontier > p.conf.MaxFrontier {
					res.FailOpen = true
					break
				}
				sc.directed.Add(blk)
				allConcrete, _ := evaluate(blk)
				if res.FailOpen {
					break
				}
				if allConcrete {
					// Immediate-defining: prune this path.
					continue
				}
				sc.preds, sawInd = p.predBlocksInto(blk, &sc.predSeen, sc.preds[:0])
				resolverSensitive = resolverSensitive || sawInd
				if len(sc.preds) == 0 {
					// The search ran off the top of the program (or an
					// unreferenced root) without bounding the value.
					res.FailOpen = true
					break
				}
				if contained {
					contained = p.allInFunc(fn, sc.preds)
				}
				sc.next = append(sc.next, sc.preds...)
			}
			if res.FailOpen {
				break
			}
			sc.pending, sc.next = sc.next, sc.pending
			if len(sc.pending) > 0 && depth == p.conf.MaxBFSDepth {
				res.FailOpen = true
			}
		}
	}

	res.Syscalls = sc.values.Append(make([]uint64, 0, sc.values.Len()))
	putScratch(sc)

	// With the resolver active, a search that saw indirect predecessor
	// edges is a function of the image-wide candidate index, not of the
	// function's content alone: another image with identical function
	// bytes can wire (or filter) those edges differently, so such
	// results stay out of the memo. Resolver-off searches keep the
	// legacy gating; the two never share entries because the resolver
	// setting is part of memoConfKey.
	if p.conf.ResolverLayers > 0 && resolverSensitive {
		memoKey = ""
	}
	if memoKey != "" && contained && !budgetShaped {
		p.conf.Memo.save(memoKey, siteRec{
			Syscalls: res.Syscalls,
			FailOpen: res.FailOpen,
			Blocks:   res.BlocksExplored,
			Steps:    steps,
			Forks:    forks,
		})
	}
	return res
}

// siteMemoKey names one (function content, site, queried parameter,
// configuration) identification in the memo.
func (p *Pass) siteMemoKey(fn *cfg.Func, target *cfg.Block, param *symex.ParamRef) string {
	key := "i\x00" + p.memoConf + "\x00" + p.funcHash(fn) + "\x00" + hexU64(target.Addr-fn.Entry) + "\x00"
	if param == nil {
		return key + "-"
	}
	if param.Stack {
		return key + "s" + hexU64(uint64(param.Off))
	}
	return key + "r" + hexU64(uint64(param.Reg))
}

func hexU64(v uint64) string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[v&0xF]
		v >>= 4
	}
	return string(buf[:])
}

// allInFunc reports whether every block of blks belongs to fn.
func (p *Pass) allInFunc(fn *cfg.Func, blks []*cfg.Block) bool {
	for _, b := range blks {
		if f, ok := p.g.FuncContaining(b.Addr); !ok || f != fn {
			return false
		}
	}
	return true
}

// predBlocksInto appends the deduplicated predecessor blocks of b
// across every edge kind (fall, jump, call, call-fall, indirect) to
// out, in ascending address order, skipping indirect predecessors the
// resolver has excluded. seen is caller-owned scratch; it is reset
// here. sawIndirect reports whether ANY indirect predecessor edge was
// encountered (filtered or not): a search that touched one depends on
// the image-wide candidate index rather than on function content
// alone, so its result must not enter the content-keyed memo while
// the resolver is active.
func (p *Pass) predBlocksInto(b *cfg.Block, seen *cfg.BlockSet, out []*cfg.Block) (_ []*cfg.Block, sawIndirect bool) {
	seen.Reset()
	start := len(out)
	for _, e := range b.Preds {
		if e.Kind == cfg.EdgeIndirectCall || e.Kind == cfg.EdgeIndirectJump {
			sawIndirect = true
			if !p.allowEdge(e) {
				continue
			}
		}
		if e.From == b || !seen.Add(e.From) {
			continue
		}
		out = append(out, e.From)
	}
	added := out[start:]
	sort.Slice(added, func(i, j int) bool { return added[i].Addr < added[j].Addr })
	return out, sawIndirect
}
