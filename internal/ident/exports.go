package ident

import (
	"sort"

	"bside/internal/cfg"
	"bside/internal/linux"
	"bside/internal/symex"
)

// ExportProfile summarizes what one exported function of a shared
// library can do syscall-wise; the collection of profiles forms the
// library's shared interface (§4.5).
type ExportProfile struct {
	Name string
	Addr uint64
	// Syscalls an invocation of this export may issue (resolved within
	// the library).
	Syscalls []uint64
	// Wrapper is non-nil when the export itself is a syscall wrapper;
	// callers must resolve its call sites against this parameter.
	Wrapper *symex.ParamRef
	// Imports lists foreign symbols this export may call (cross-library
	// propagation).
	Imports []string
	// FailOpen marks exports whose syscall set could not be bounded.
	FailOpen bool
}

// ExportProfiles derives per-export profiles from a library's analysis
// report by intersecting each export's reachable blocks with the
// per-site results.
func ExportProfiles(g *cfg.Graph, rep *Report) []ExportProfile {
	wrapperByEntry := make(map[uint64]symex.ParamRef, len(rep.Wrappers))
	for _, w := range rep.Wrappers {
		wrapperByEntry[w.FnEntry] = w.Param
	}

	var values linux.SyscallBitset
	var imports []string
	profiles := make([]ExportProfile, 0, len(g.Bin.Exports))
	for _, ex := range g.Bin.Exports {
		p := ExportProfile{Name: ex.Name, Addr: ex.Addr}
		reach := g.ReachableSet(ex.Addr)

		values = linux.SyscallBitset{}
		for _, site := range rep.Sites {
			if !reach.Has(site.Block.ID) {
				continue
			}
			if site.FailOpen {
				p.FailOpen = true
			}
			values.AddAll(site.Syscalls)
		}
		p.Syscalls = values.Append(make([]uint64, 0, values.Len()))

		imports = imports[:0]
		blocks := g.Blocks()
		for i := range blocks {
			if name := g.ImportCall(&blocks[i]); name != "" && reach.Has(blocks[i].ID) {
				imports = append(imports, name)
			}
		}
		sort.Strings(imports)
		p.Imports = compactStrings(imports)

		if fn, ok := g.FuncByEntry(ex.Addr); ok {
			if param, isWrapper := wrapperByEntry[fn.Entry]; isWrapper {
				pr := param
				p.Wrapper = &pr
			}
		}
		profiles = append(profiles, p)
	}
	sort.Slice(profiles, func(i, j int) bool { return profiles[i].Name < profiles[j].Name })
	return profiles
}

// compactStrings copies a sorted slice, dropping adjacent duplicates.
func compactStrings(in []string) []string {
	out := make([]string, 0, len(in))
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}
