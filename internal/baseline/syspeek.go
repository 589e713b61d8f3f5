package baseline

import (
	"debug/elf"
	"fmt"
	"io"

	"bside/internal/x86"
)

// syspeekWindow is how many already-decoded instructions the scanner
// backtracks through looking for the syscall number — the same
// small-constant window the objdump-pipeline tools use.
const syspeekWindow = 32

// CodeRegion is one run of executable bytes at its virtual address.
type CodeRegion struct {
	Addr uint64
	Code []byte
}

// CodeRegions reads the executable code of the ELF file at path
// through debug/elf alone, as `objdump -d` would find it: the
// SHF_EXECINSTR sections, or the PF_X PT_LOAD segments of an image
// without any. The analyzer's own reader (internal/elff) is not
// involved, so a blind spot there cannot blind the scanner.
func CodeRegions(path string) ([]CodeRegion, error) {
	f, err := elf.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []CodeRegion
	for _, s := range f.Sections {
		// A compressed section is never mapped as code, and its header
		// alone would size the decompression buffer.
		if s.Type != elf.SHT_PROGBITS || s.Flags&elf.SHF_EXECINSTR == 0 || s.Flags&elf.SHF_COMPRESSED != 0 {
			continue
		}
		code, err := s.Data()
		if err != nil {
			return nil, fmt.Errorf("section %s: %w", s.Name, err)
		}
		out = append(out, CodeRegion{Addr: s.Addr, Code: code})
	}
	if len(out) > 0 {
		return out, nil
	}
	for _, p := range f.Progs {
		if p.Type != elf.PT_LOAD || p.Flags&elf.PF_X == 0 {
			continue
		}
		code, err := io.ReadAll(p.Open())
		if err != nil {
			return nil, fmt.Errorf("segment at %#x: %w", p.Vaddr, err)
		}
		out = append(out, CodeRegion{Addr: p.Vaddr, Code: code})
	}
	return out, nil
}

// Syspeek is the cheap objdump-style scanner the sweep harness carries
// as a differential baseline: one linear decode pass over each code
// region — no CFG, no reachability, no symbolic execution — recording
// every `syscall` instruction and backtracking through the
// just-decoded window of its region for an immediate load into RAX.
// Decode errors resync by one byte, as a disassembly pipeline over
// `objdump -d` effectively does.
//
// Its blind spots are exactly what B-Side exists to fix — numbers
// carried through wrappers, stack slots, or computed registers are
// unresolvable (counted in SitesTotal but not SitesResolved), and dead
// code is scanned as eagerly as live code — which is what makes it a
// useful disagreement oracle: a *resolved* syspeek number missing from
// B-Side's set points at a soundness hole in reachability or
// identification, while syspeek missing numbers B-Side found is the
// expected precision gap. Works on every ELF kind (no unwind or PIC
// requirements), so it never returns an error.
func Syspeek(regions []CodeRegion) *Result {
	res := &Result{}
	values := make(map[uint64]bool)
	for _, r := range regions {
		// Ring of the last syspeekWindow decoded instructions, in
		// decode order; window[(head-1+len)%len] is the most recent.
		var window [syspeekWindow]x86.Inst
		head, filled := 0, 0
		addr := r.Addr
		var in x86.Inst
		for off := 0; off < len(r.Code); {
			if err := x86.Decode(&in, r.Code[off:], addr); err != nil {
				// Resync: skip one byte, like objdump riding over data
				// interleaved with code.
				off++
				addr++
				continue
			}
			if in.Op == x86.OpSyscall {
				res.SitesTotal++
				if v, ok := syspeekBacktrack(&window, head, filled); ok {
					values[v] = true
					res.SitesResolved++
				}
			}
			window[head] = in
			head = (head + 1) % syspeekWindow
			if filled < syspeekWindow {
				filled++
			}
			off += int(in.Len)
			addr += uint64(in.Len)
		}
	}
	res.Syscalls = sortedSet(values)
	return res
}

// syspeekBacktrack walks the decoded window backwards from the most
// recent instruction, looking for the nearest write to RAX: an
// immediate mov resolves the site, an xor-self resolves it to 0, and
// any other producer — a register move, a memory load, a call — is
// beyond a linear scanner's reach.
func syspeekBacktrack(window *[syspeekWindow]x86.Inst, head, filled int) (uint64, bool) {
	for i := 0; i < filled; i++ {
		in := &window[(head-1-i+2*syspeekWindow)%syspeekWindow]
		switch in.Op {
		case x86.OpMov:
			if in.Dst.Kind != x86.KindReg || in.Dst.Reg != x86.RAX {
				continue
			}
			if in.Src.Kind == x86.KindImm {
				return uint64(in.Imm), true
			}
			return 0, false
		case x86.OpXor:
			if in.Dst.Kind == x86.KindReg && in.Dst.Reg == x86.RAX {
				if in.Src.Kind == x86.KindReg && in.Src.Reg == x86.RAX {
					return 0, true
				}
				return 0, false
			}
		default:
			if writesRegister(in, x86.RAX) {
				return 0, false
			}
		}
	}
	return 0, false
}
