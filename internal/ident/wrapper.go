package ident

import (
	"bside/internal/cfg"
	"bside/internal/symex"
	"bside/internal/usedef"
	"bside/internal/x86"
)

// detectWrapper runs the two-phase wrapper heuristic of §4.4 on the
// function containing a syscall site.
//
// Phase 1 is a fast intra-procedural use-define scan: if %rax at the
// site resolves to constants entirely within the function, the function
// is definitively not a wrapper and the expensive phase is skipped.
//
// Phase 2 confirms the hypothesis with symbolic execution from the
// function entry, argument registers and stack slots tagged as
// parameters: a parameter-valued (or parameter-tainted) %rax at the
// site qualifies the function as a wrapper and records which parameter
// carries the syscall number.
//
// Both phases are confined to fn by construction — the use-define scan
// only follows in-function predecessors, and the symbolic run may only
// enter fn's own blocks (out-of-set calls are havocked identically
// whatever their target) — so the verdict is a pure function of the
// function's content and is memoized under its content fingerprint.
func (p *Pass) detectWrapper(fn *cfg.Func, site *cfg.Block) (*WrapperInfo, bool, error) {
	var memoKey string
	if p.conf.Memo != nil {
		memoKey = "w\x00" + p.memoConf + "\x00" + p.funcHash(fn) + "\x00" + hexU64(site.Addr-fn.Entry)
		if rec, ok := loadRec[wrapperRec](p.conf.Memo, memoKey); ok {
			// Replay the recorded budget consumption: a tight budget
			// must exhaust at the same point with and without the memo.
			p.conf.Budget.AddSteps(rec.Steps)
			p.conf.Budget.AddForks(rec.Forks)
			if !rec.Wrapper {
				return nil, false, nil
			}
			return &WrapperInfo{
				FnEntry:  fn.Entry,
				FnName:   fn.Name,
				SiteAddr: site.Last().Addr,
				Param:    rec.Param,
			}, true, nil
		}
	}

	info, isWrapper, steps, forks, err := p.detectWrapperUncached(fn, site)
	if err != nil {
		return nil, false, err
	}
	if memoKey != "" {
		rec := wrapperRec{Wrapper: isWrapper, Steps: steps, Forks: forks}
		if isWrapper {
			rec.Param = info.Param
		}
		p.conf.Memo.save(memoKey, rec)
	}
	return info, isWrapper, nil
}

func (p *Pass) detectWrapperUncached(fn *cfg.Func, site *cfg.Block) (*WrapperInfo, bool, int, int, error) {
	siteIdx := len(site.Insns) - 1

	// Phase 1: cheap use-define chains; memory operands or values
	// flowing from the caller yield !ok.
	if _, ok := usedef.Resolve(usedef.Request{
		Fn:      fn,
		Block:   site,
		InsnIdx: siteIdx,
		Reg:     x86.RAX,
	}); ok {
		return nil, false, 0, 0, nil
	}

	// Phase 2: symbolic confirmation.
	entryBlk, ok := p.g.BlockAt(fn.Entry)
	if !ok {
		return nil, false, 0, 0, nil
	}
	allowed := p.getSet()
	defer putSet(allowed)
	for _, b := range fn.Blocks {
		allowed.Add(b)
	}
	res := p.machine.RunToSite(entryBlk, p.machine.NewEntryState(p.conf.StackParams), allowed, site)
	defer p.machine.Release(&res)
	if res.HitBudget {
		return nil, false, res.Steps, res.Forks, p.budgetError(StageWrappers)
	}
	for _, st := range res.SiteStates {
		rax := st.Reg(x86.RAX)
		if rax.Kind == symex.KParam {
			return &WrapperInfo{
				FnEntry:  fn.Entry,
				FnName:   fn.Name,
				SiteAddr: site.Last().Addr,
				Param:    rax.P,
			}, true, res.Steps, res.Forks, nil
		}
		if taint := rax.AllTaint(); rax.Kind == symex.KUnknown && len(taint) > 0 {
			// %rax derives from a parameter through arithmetic; the
			// first taint is the carrying parameter.
			return &WrapperInfo{
				FnEntry:  fn.Entry,
				FnName:   fn.Name,
				SiteAddr: site.Last().Addr,
				Param:    taint[0],
			}, true, res.Steps, res.Forks, nil
		}
	}
	return nil, false, res.Steps, res.Forks, nil
}
