package baseline

import (
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/linux"
	"bside/internal/x86"
)

// chestnutScanWindow is the fixed backward-exploration depth of
// Chestnut's Binalyzer (the paper calls out that "the limited scope of
// the exploration (30 instructions) is not sufficient" for many
// binaries).
const chestnutScanWindow = 30

// ChestnutFallback returns the permissive set Chestnut unions in when a
// site cannot be resolved: everything except a fixed denylist of
// legacy, module-loading and scheduling-internals syscalls. The result
// has 270 entries, matching the ">268 identified" behaviour reported in
// §5.2.
func ChestnutFallback() []uint64 {
	denied := make(map[uint64]bool)
	for n := uint64(154); n <= 185; n++ { // modify_ldt .. security
		denied[n] = true
	}
	for n := uint64(205); n <= 216; n++ { // set_thread_area .. remap_file_pages
		denied[n] = true
	}
	for n := uint64(236); n <= 256; n++ { // vserver .. migrate_pages
		denied[n] = true
	}
	out := make([]uint64, 0, linux.TableSize-len(denied))
	for _, n := range linux.All() {
		if !denied[n] {
			out = append(out, n)
		}
	}
	return out
}

// Chestnut runs the Chestnut-like analysis on one module with the
// default disassembly budget.
func Chestnut(bin *elff.Binary) (*Result, error) {
	return ChestnutWithBudget(bin, 2_000_000)
}

// ChestnutWithBudget bounds the disassembly work (the Table 2 harness
// uses a budget that separates the corpus's failure classes).
func ChestnutWithBudget(bin *elff.Binary, maxInsns int) (*Result, error) {
	if bin.Kind == elff.KindStatic {
		// Binalyzer's loader handles dynamic objects only.
		return nil, ErrStaticUnsupported
	}
	g, err := recoverAll(bin, maxInsns)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	values := make(map[uint64]bool)
	fallback := func() {
		if !res.FellBack {
			for _, n := range ChestnutFallback() {
				values[n] = true
			}
			res.FellBack = true
		}
	}

	// Hardcoded glibc special case: a function exported exactly as
	// "syscall" gets its call sites scanned for `mov edi, imm`.
	glibcWrapper := uint64(0)
	if addr, ok := bin.ExportAddr("syscall"); ok {
		glibcWrapper = addr
	}

	for _, site := range g.SyscallBlocks() {
		res.SitesTotal++
		fn, ok := g.FuncContaining(site.Addr)
		if ok && glibcWrapper != 0 && fn.Entry == glibcWrapper {
			// Resolve at the wrapper's call sites instead.
			resolvedAll := true
			entryBlk, _ := g.BlockAt(glibcWrapper)
			for _, e := range g.Preds(entryBlk) {
				if e.Kind != cfg.EdgeCall && e.Kind != cfg.EdgeIndirectCall {
					continue
				}
				from := g.Block(e.From)
				if v, ok := chestnutScan(g, from, len(g.Insns(from))-1, x86.RDI); ok {
					values[v] = true
				} else {
					resolvedAll = false
				}
			}
			if resolvedAll {
				res.SitesResolved++
			} else {
				fallback()
			}
			continue
		}
		if v, ok := chestnutScan(g, site, len(g.Insns(site))-1, x86.RAX); ok {
			values[v] = true
			res.SitesResolved++
		} else {
			fallback()
		}
	}

	res.Syscalls = sortedSet(values)
	return res, nil
}

// chestnutScan walks backward linearly (by address, ignoring control
// flow) from the instruction before (blk, idx), inspecting at most
// chestnutScanWindow instructions, tracking only mov/xor on registers —
// a faithful rendition of Binalyzer's value scan.
func chestnutScan(g *cfg.Graph, blk *cfg.Block, idx int, reg x86.Reg) (uint64, bool) {
	insns := linearWindow(g, blk, idx)
	tracked := reg
	for i := len(insns) - 1; i >= 0; i-- {
		in := &insns[i]
		switch in.Op {
		case x86.OpMov:
			if in.Dst.Kind != x86.KindReg || in.Dst.Reg != tracked {
				continue
			}
			switch in.Src.Kind {
			case x86.KindImm:
				return uint64(in.Imm), true
			case x86.KindReg:
				tracked = in.Src.Reg
			default:
				return 0, false // memory: Chestnut gives up
			}
		case x86.OpXor:
			if in.Dst.Kind == x86.KindReg && in.Dst.Reg == tracked &&
				in.Src.Kind == x86.KindReg && in.Src.Reg == tracked {
				return 0, true
			}
		default:
			if writesRegister(in, tracked) {
				return 0, false // anything else producing the value: give up
			}
		}
	}
	return 0, false
}

// linearWindow collects up to chestnutScanWindow instructions preceding
// (blk, idx) in address order, crossing block boundaries linearly.
func linearWindow(g *cfg.Graph, blk *cfg.Block, idx int) []x86.Inst {
	var out []x86.Inst
	out = append(out, g.Insns(blk)[:idx]...)
	// Walk backwards through address-adjacent blocks (the block before
	// in address order is the one with the previous ID).
	for blk.ID > 0 && len(out) < chestnutScanWindow {
		prev := g.Block(blk.ID - 1)
		if g.End(prev) != blk.Addr {
			break // gap: stop the linear walk
		}
		out = append(append([]x86.Inst(nil), g.Insns(prev)...), out...)
		blk = prev
	}
	if len(out) > chestnutScanWindow {
		out = out[len(out)-chestnutScanWindow:]
	}
	return out
}

func writesRegister(in *x86.Inst, reg x86.Reg) bool {
	switch in.Op {
	case x86.OpMov, x86.OpMovzxB, x86.OpMovzxW, x86.OpMovsxB, x86.OpMovsxW, x86.OpMovsxd, x86.OpLea,
		x86.OpXor, x86.OpAdd, x86.OpSub, x86.OpAnd, x86.OpOr,
		x86.OpShl, x86.OpShr, x86.OpInc, x86.OpDec, x86.OpPop:
		return in.Dst.Kind == x86.KindReg && in.Dst.Reg == reg
	case x86.OpCall, x86.OpCallInd, x86.OpSyscall:
		return x86.CallerSaved.Has(reg)
	}
	return false
}
