package baseline

import (
	"bside/internal/elff"
	"bside/internal/usedef"
	"bside/internal/x86"
)

// SysFilter runs the SysFilter-like analysis on one module.
//
// Mechanics mirrored from the original (§3 of the paper): function
// boundaries come from unwind information (its absence is a hard
// failure), non-PIC executables are rejected, the CFG overestimates
// indirect control flow with the plain address-taken heuristic, and
// per-site values are resolved with intra-procedural register
// use-define chains. Sites whose value travels through memory or
// arrives from a caller resolve to nothing — the tool's documented
// false-negative mode on syscall wrappers.
func SysFilter(bin *elff.Binary) (*Result, error) {
	return SysFilterWithBudget(bin, 2_000_000)
}

// SysFilterWithBudget bounds the disassembly work.
func SysFilterWithBudget(bin *elff.Binary, maxInsns int) (*Result, error) {
	if bin.Kind == elff.KindStatic {
		return nil, ErrStaticUnsupported
	}
	if !bin.HasUnwind {
		return nil, ErrNoUnwind
	}
	g, err := recoverAll(bin, maxInsns)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	values := make(map[uint64]bool)
	for _, site := range g.SyscallBlocks() {
		res.SitesTotal++
		fn, ok := g.FuncContaining(site.Addr)
		if !ok {
			continue
		}
		vals, ok := usedef.Resolve(usedef.Request{
			Graph:   g,
			Fn:      fn,
			Block:   site,
			InsnIdx: len(g.Insns(site)) - 1,
			Reg:     x86.RAX,
		})
		if !ok {
			continue // silent miss: SysFilter's false-negative source
		}
		res.SitesResolved++
		for _, v := range vals {
			if v <= 1023 {
				values[v] = true
			}
		}
	}
	res.Syscalls = sortedSet(values)
	return res, nil
}
