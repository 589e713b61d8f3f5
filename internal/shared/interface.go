// Package shared implements step 3 of B-Side's pipeline (§4.5):
// decoupled analysis of shared libraries into reusable *shared
// interfaces* (persisted as content-addressed cache entries), and
// resolution of a dynamically compiled executable's foreign calls
// against the interfaces of its (transitive) library dependencies.
//
// Each DT_NEEDED list's closure is walked once into a closure record
// (closureOf). Its post-order orders interface computation, so every
// library is analyzed after everything it needs; its sorted names are
// the symbol-resolution scope and the export-memo key; and its
// name=sha256 rendering is the dependency part of every cache
// fingerprint.
package shared

import (
	"fmt"
	"sort"

	"bside/internal/elff"
	"bside/internal/ident"
	"bside/internal/pipeline"
	"bside/internal/symex"
	"bside/internal/x86"
)

// Param is the JSON form of a wrapper's number-carrying parameter.
type Param struct {
	Stack bool   `json:"stack,omitempty"`
	Reg   string `json:"reg,omitempty"`
	Off   int64  `json:"off,omitempty"`
}

func paramFromRef(p symex.ParamRef) Param {
	if p.Stack {
		return Param{Stack: true, Off: p.Off}
	}
	return Param{Reg: p.Reg.String()}
}

// Ref converts back to the analyzer's representation.
func (p Param) Ref() (symex.ParamRef, error) {
	if p.Stack {
		return symex.ParamRef{Stack: true, Off: p.Off}, nil
	}
	for r := x86.Reg(0); r < x86.NumGPR; r++ {
		if r.String() == p.Reg {
			return symex.ParamRef{Reg: r}, nil
		}
	}
	return symex.ParamRef{}, fmt.Errorf("shared: unknown register %q", p.Reg)
}

// Export is one entry of a library's shared interface.
type Export struct {
	Name     string   `json:"name"`
	Syscalls []uint64 `json:"syscalls,omitempty"`
	// Wrapper is set when the export is a syscall wrapper whose number
	// comes from the caller; clients must resolve their call sites.
	Wrapper *Param `json:"wrapper,omitempty"`
	// Imports are foreign symbols this export may call.
	Imports  []string `json:"imports,omitempty"`
	FailOpen bool     `json:"fail_open,omitempty"`
}

// Interface is the per-library metadata file (K/L in Figure 3).
type Interface struct {
	Library string `json:"library"`
	// Needed lists the library's own DT_NEEDED dependencies.
	Needed []string `json:"needed,omitempty"`
	// Exports describes each exposed function.
	Exports []Export `json:"exports"`
	// AddrTaken records the library's active addresses taken.
	AddrTaken []uint64 `json:"addr_taken,omitempty"`
	// Wrappers lists wrapper function entry points (informational).
	Wrappers []uint64 `json:"wrappers,omitempty"`
}

// ExportNamed returns the interface entry for name.
func (ifc *Interface) ExportNamed(name string) (*Export, bool) {
	for i := range ifc.Exports {
		if ifc.Exports[i].Name == name {
			return &ifc.Exports[i], true
		}
	}
	return nil, false
}

// AnalyzeLibrary performs the expensive once-per-library phase — the
// decode, wrapper-detection and identification stages of the pipeline,
// folded into the library's shared interface. importWrappers carries
// wrapper information for the library's own dependencies (resolved
// first by the dependency ordering in Analyzer). conf.Workers spreads
// the library's own identification units across the intra-binary pool.
func AnalyzeLibrary(bin *elff.Binary, name string, conf ident.Config, importWrappers map[string]symex.ParamRef) (*Interface, error) {
	conf.ImportWrappers = importWrappers
	res, err := pipeline.Run(bin, pipeline.Config{Ident: conf})
	if err != nil {
		return nil, fmt.Errorf("shared: %s: %w", name, err)
	}
	g, rep := res.Graph, res.Report
	profiles := ident.ExportProfiles(g, rep)

	ifc := &Interface{
		Library:   name,
		Needed:    append([]string(nil), bin.Needed...),
		AddrTaken: append([]uint64(nil), g.ActiveAddrTaken...),
	}
	for _, w := range rep.Wrappers {
		ifc.Wrappers = append(ifc.Wrappers, w.FnEntry)
	}
	for _, p := range profiles {
		e := Export{
			Name:     p.Name,
			Syscalls: p.Syscalls,
			Imports:  p.Imports,
			FailOpen: p.FailOpen,
		}
		// Keep empties nil so the JSON round trip is lossless.
		if len(e.Syscalls) == 0 {
			e.Syscalls = nil
		}
		if len(e.Imports) == 0 {
			e.Imports = nil
		}
		if p.Wrapper != nil {
			prm := paramFromRef(*p.Wrapper)
			e.Wrapper = &prm
		}
		ifc.Exports = append(ifc.Exports, e)
	}
	sort.Slice(ifc.Exports, func(i, j int) bool { return ifc.Exports[i].Name < ifc.Exports[j].Name })
	return ifc, nil
}
