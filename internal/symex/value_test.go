package symex

import (
	"reflect"
	"testing"
	"unsafe"

	"bside/internal/asm"
	"bside/internal/x86"
)

// TestValueIsSmallAndPointerFree: the executor copies values on every
// instruction and clears whole register files when a state is pooled.
// A pointer or slice field would bring back the copies and the write
// barriers, so Value stays 16 bytes of plain data.
func TestValueIsSmallAndPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("Value is %d bytes, want 16", n)
	}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Array:
			walk(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		default:
			t.Errorf("Value holds a %v, which may carry a pointer", typ)
		}
	}
	walk(reflect.TypeOf(Value{}))
}

// TestParamTable: every table entry round-trips, entry states tag
// exactly the System V argument registers, and as many stack slots as
// the mask holds and no more.
func TestParamTable(t *testing.T) {
	for i := 0; i < len(paramRegs)+maxStackParams; i++ {
		p := paramAt(i)
		if got, ok := Param(p).Param(); !ok || got != p {
			t.Errorf("entry %d: %v round-trips to %v", i, p, got)
		}
	}
	sysV := map[x86.Reg]bool{x86.RDI: true, x86.RSI: true, x86.RDX: true, x86.RCX: true, x86.R8: true, x86.R9: true}
	st := NewEntryState(maxStackParams)
	for r := x86.Reg(0); r < x86.NumGPR; r++ {
		if got := st.Reg(r).Kind == KParam; got != sysV[r] {
			t.Errorf("%v tagged as a parameter: %v", r, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewEntryState tagged more stack slots than the mask holds")
		}
	}()
	NewEntryState(maxStackParams + 1)
}

// TestCarryingParamOrder: when %rax mixes parameters, the carrying one
// is the lowest argument register by number, and registers come before
// stack slots — the order wrapper detection has always reported.
func TestCarryingParamOrder(t *testing.T) {
	cases := []struct {
		name  string
		body  func(b *asm.Builder)
		want  ParamRef
		taint []ParamRef
	}{
		{"rsi+[rsp+8]", func(b *asm.Builder) {
			b.MovRegMem(x86.RAX, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 8})
			b.AddRegReg(x86.RAX, x86.RSI)
		}, ParamRef{Reg: x86.RSI}, []ParamRef{{Reg: x86.RSI}, {Stack: true, Off: 8}}},
		{"rdi+rcx", func(b *asm.Builder) {
			b.MovRegReg(x86.RAX, x86.RDI)
			b.AddRegReg(x86.RAX, x86.RCX)
		}, ParamRef{Reg: x86.RCX}, []ParamRef{{Reg: x86.RCX}, {Reg: x86.RDI}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, syms := recoverGraph(t, func(b *asm.Builder) {
				b.Func("_start")
				b.Ret()
				b.Func("wrapper")
				tc.body(b)
				b.Syscall()
				b.Ret()
			})
			entry, _ := g.BlockAt(syms["wrapper"])
			regs, _ := siteRegs(NewMachine(g, NewBudget()), entry, NewEntryState(8), allBlocks(g), g.SyscallBlocks()[0])
			if len(regs) != 1 {
				t.Fatalf("%d site states", len(regs))
			}
			rax := regs[0][x86.RAX]
			if p, ok := rax.Param(); rax.Kind != KUnknown || !ok || p != tc.want {
				t.Errorf("rax = %v carries %v, want %v", rax, p, tc.want)
			}
			if got := rax.AllTaint(); !reflect.DeepEqual(got, tc.taint) {
				t.Errorf("taint %v, want %v", got, tc.taint)
			}
		})
	}
}
