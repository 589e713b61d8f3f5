package symex

import (
	"reflect"
	"sort"
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// unknownRAX stands for a site state whose RAX is not a constant.
const unknownRAX = -1

// TestRunToSiteTransfers drives RunToSite across each kind of control
// transfer a path can cross on its way to the site, with an explicit
// allowed set per row. It checks the RAX values the site states hold
// (sorted; unknownRAX for a non-constant), the forks the run charged,
// and, where a syscall lies on the way, the ABI clobber of RCX and R11.
func TestRunToSiteTransfers(t *testing.T) {
	// indirectCall calls through a register: a constant target when
	// table is false, else one loaded from a two-entry table indexed by
	// RDI, which a fresh state does not know.
	indirectCall := func(table bool) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			b.Func("_start")
			b.MovRegImm32(x86.RAX, 60)
			if table {
				b.Lea(x86.RDX, "table")
				b.MovRegMem(x86.RDX, x86.Mem{Base: x86.RDX, Index: x86.RDI, Scale: 8})
			} else {
				b.Lea(x86.RDX, "fn0")
			}
			b.CallReg(x86.RDX)
			b.Label("site")
			b.Syscall()
			b.Ret()
			b.Func("fn0")
			b.MovRegImm32(x86.RAX, 39)
			b.Ret()
			b.Func("fn1")
			b.MovRegImm32(x86.RAX, 41)
			b.Ret()
			b.Label("__code_end")
			b.Align(8)
			b.Label("table")
			b.QuadLabel("fn0")
			b.QuadLabel("fn1")
		}
	}
	// importCall reaches an import either inline through its GOT slot or
	// through a PLT-style stub.
	importCall := func(stub bool) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			b.Func("_start")
			b.MovRegImm32(x86.RAX, 39)
			if stub {
				b.CallLabel("stub")
			} else {
				b.CallMemRIP("got_ext")
			}
			b.Label("site")
			b.Syscall()
			b.Ret()
			b.Func("stub")
			b.JmpMemRIP("got_ext")
			b.Label("__code_end")
			b.Align(8)
			b.Label("got_ext")
			b.Quad(0)
		}
	}
	// jumpTable dispatches through a constant target or a table entry
	// indexed by RDI; case0 overrides the number, case1 keeps it.
	jumpTable := func(table bool) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			b.Func("_start")
			b.MovRegImm32(x86.RAX, 39)
			if table {
				b.Lea(x86.RDX, "table")
				b.MovRegMem(x86.RDX, x86.Mem{Base: x86.RDX, Index: x86.RDI, Scale: 8})
			} else {
				b.Lea(x86.RDX, "case1")
			}
			b.JmpReg(x86.RDX)
			b.Func("case0")
			b.MovRegImm32(x86.RAX, 41)
			b.JmpLabel("site")
			b.Func("case1")
			b.JmpLabel("site")
			b.Label("site")
			b.Syscall()
			b.Ret()
			b.Label("__code_end")
			b.Align(8)
			b.Label("table")
			b.QuadLabel("case0")
			b.QuadLabel("case1")
		}
	}

	// armStore stores 41 over a slot holding 39 on a conditional jump's
	// target arm, which runs first; both arms rejoin at the site, which
	// loads the slot into RAX. The slot is a stack slot, or a global.
	armStore := func(global bool) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			slot := x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1}
			b.Func("_start")
			if global {
				b.Lea(x86.RDX, "slot")
				slot.Base = x86.RDX
			} else {
				b.SubRegImm(x86.RSP, 16)
				b.MovMemImm32(slot, 39)
			}
			b.CmpRegImm(x86.RDI, 0)
			b.Jcc(x86.CondNE, "store")
			b.Label("keep")
			b.JmpLabel("site")
			b.Label("store")
			b.MovMemImm32(slot, 41)
			b.Label("site")
			b.MovRegMem(x86.RAX, slot)
			b.Syscall()
			b.Ret()
			if global {
				b.Label("__code_end")
				b.Align(8)
				b.Label("slot")
				b.Quad(39)
			}
		}
	}

	rows := []struct {
		name    string
		build   func(b *asm.Builder)
		start   string
		allow   []string // labels of the blocks the run may enter
		rax     []int64
		forks   int64
		clobber bool
	}{
		{
			name:  "inline import call havocs the caller-saved registers",
			build: importCall(false), start: "_start", allow: []string{"_start"},
			rax: []int64{unknownRAX},
		},
		{
			name:  "import stub returns through the pushed return address",
			build: importCall(true), start: "_start", allow: []string{"_start", "stub"},
			rax: []int64{unknownRAX},
		},
		{
			name:  "constant indirect call into the set returns with its value",
			build: indirectCall(false), start: "_start", allow: []string{"_start", "fn0"},
			rax: []int64{39},
		},
		{
			name:  "constant indirect call outside the set is skipped with a havoc",
			build: indirectCall(false), start: "_start", allow: []string{"_start"},
			rax: []int64{unknownRAX},
		},
		{
			name:  "symbolic indirect call forks into each allowed target and the skip",
			build: indirectCall(true), start: "_start", allow: []string{"_start", "fn0", "fn1"},
			rax: []int64{unknownRAX, 39, 41}, forks: 2,
		},
		{
			name:  "symbolic indirect call forks only into allowed targets",
			build: indirectCall(true), start: "_start", allow: []string{"_start", "fn1"},
			rax: []int64{unknownRAX, 41}, forks: 1,
		},
		{
			name:  "ret with no return address on the stack ends the path",
			build: indirectCall(false), start: "fn0", allow: []string{"fn0"},
		},
		{
			name:  "constant indirect jump into the set",
			build: jumpTable(false), start: "_start", allow: []string{"_start", "case1"},
			rax: []int64{39},
		},
		{
			name:  "constant indirect jump outside the set ends the path",
			build: jumpTable(false), start: "_start", allow: []string{"_start"},
		},
		{
			name:  "jump table forks into each allowed case",
			build: jumpTable(true), start: "_start", allow: []string{"_start", "case0", "case1"},
			rax: []int64{39, 41}, forks: 2,
		},
		{
			name:  "a resumed fork sees no stack store from the other arm",
			build: armStore(false), start: "_start", allow: []string{"_start", "keep", "store"},
			rax: []int64{39, 41}, forks: 1,
		},
		{
			name:  "a resumed fork sees no global store from the other arm",
			build: armStore(true), start: "_start", allow: []string{"_start", "keep", "store"},
			rax: []int64{39, 41}, forks: 1,
		},
		{
			name: "syscall on the way clobbers RAX, RCX and R11",
			build: func(b *asm.Builder) {
				b.Func("_start")
				b.MovRegImm32(x86.RAX, 39)
				b.MovRegImm32(x86.RCX, 5)
				b.MovRegImm32(x86.R11, 6)
				b.Syscall()
				b.Label("site")
				b.Syscall()
				b.Ret()
			},
			start: "_start", allow: []string{"_start"},
			rax: []int64{unknownRAX}, clobber: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			bin, syms := testbin.Build(t, elff.KindDynamic, row.build, func(spec *elff.Spec, syms map[string]uint64) {
				if slot, ok := syms["got_ext"]; ok {
					spec.Imports = []elff.Import{{Name: "ext", SlotAddr: slot}}
				}
			})
			g, err := cfg.Recover(bin, cfg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			block := func(label string) *cfg.Block {
				t.Helper()
				blk, ok := g.BlockAt(syms[label])
				if !ok {
					t.Fatalf("no block starts at %s", label)
				}
				return blk
			}
			allowed := cfg.NewBlockSet(g.NumBlocks())
			for _, label := range row.allow {
				allowed.Add(block(label).ID)
			}
			budget := NewBudget()
			m := NewMachine(g, budget)
			var rax []int64
			res := m.RunToSite(block(row.start), m.NewState(), allowed, block("site"), func(st *State) {
				k, ok := st.Reg(x86.RAX).IsConst()
				if !ok {
					rax = append(rax, unknownRAX)
				} else {
					rax = append(rax, int64(k))
				}
				if row.clobber {
					for _, r := range []x86.Reg{x86.RCX, x86.R11} {
						if _, ok := st.Reg(r).IsConst(); ok {
							t.Errorf("%v survived the syscall: %v", r, st.Reg(r))
						}
					}
				}
			})
			if res.HitBudget {
				t.Fatal("budget exhausted")
			}
			sort.Slice(rax, func(i, j int) bool { return rax[i] < rax[j] })
			if !reflect.DeepEqual(rax, row.rax) {
				t.Errorf("site RAX = %v, want %v", rax, row.rax)
			}
			if got := budget.forks.Load(); got != row.forks {
				t.Errorf("forks = %d, want %d", got, row.forks)
			}
		})
	}
}
