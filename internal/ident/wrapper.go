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
// The verdict is nil when fn is not a wrapper.
func (p *Pass) detectWrapper(fn *cfg.Func, site *cfg.Block) (*WrapperInfo, error) {
	siteIdx := len(p.g.Insns(site)) - 1

	// Phase 1: cheap use-define chains; memory operands or values
	// flowing from the caller yield !ok.
	if _, ok := usedef.Resolve(usedef.Request{
		Graph:   p.g,
		Fn:      fn,
		Block:   site,
		InsnIdx: siteIdx,
		Reg:     x86.RAX,
	}); ok {
		return nil, nil
	}

	// Phase 2: symbolic confirmation.
	entryBlk, ok := p.g.BlockAt(fn.Entry)
	if !ok {
		return nil, nil
	}
	allowed := p.getSet()
	defer putSet(allowed)
	for id := fn.First; id < fn.End; id++ {
		allowed.Add(id)
	}
	// The first path whose %rax is a parameter, or derives from
	// parameters through arithmetic, names the parameter that carries
	// the number: the first one in table order.
	var param symex.ParamRef
	found := false
	res := p.machine.RunToSite(entryBlk, p.machine.NewEntryState(stackParams), allowed, site, func(st *symex.State) {
		if !found {
			param, found = st.Reg(x86.RAX).Param()
		}
	})
	if res.HitBudget {
		return nil, p.budgetError(StageWrappers)
	}
	if !found {
		return nil, nil
	}
	return &WrapperInfo{
		FnEntry:  fn.Entry,
		FnName:   fn.Name,
		SiteAddr: p.g.Last(site).Addr,
		Param:    param,
	}, nil
}
