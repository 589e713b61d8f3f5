package shared

import (
	"encoding/json"
	"reflect"
	"testing"

	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/ident"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// miniLibc builds a small libc-like library: write -> 1, exitp -> 60,
// syscall is a register wrapper.
func miniLibc(t *testing.T) *elff.Binary {
	t.Helper()
	lib, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0000000000, func(b *asm.Builder) {
		b.Func("write")
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.Ret()
		b.Func("exitp")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("syscall")
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{
			{Name: "write", Addr: syms["write"]},
			{Name: "exitp", Addr: syms["exitp"]},
			{Name: "syscall", Addr: syms["syscall"]},
		}
	})
	return lib
}

// midLib depends on libc and re-exports logmsg (which calls write) and
// spawn (which calls libc's syscall wrapper with a constant).
func midLib(t *testing.T) *elff.Binary {
	t.Helper()
	lib, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0100000000, func(b *asm.Builder) {
		b.Func("logmsg")
		b.CallLabel("stub_write")
		b.Ret()
		b.Func("spawn")
		b.MovRegImm32(x86.RDI, 57) // fork via libc syscall()
		b.CallLabel("stub_syscall")
		b.Ret()
		b.Func("stub_write")
		b.JmpMemRIP("got_write")
		b.Func("stub_syscall")
		b.JmpMemRIP("got_syscall")
		b.Label("__code_end")
		b.Align(8)
		b.Label("got_write")
		b.Quad(0)
		b.Label("got_syscall")
		b.Quad(0)
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{
			{Name: "logmsg", Addr: syms["logmsg"]},
			{Name: "spawn", Addr: syms["spawn"]},
		}
		spec.Imports = []elff.Import{
			{Name: "write", SlotAddr: syms["got_write"]},
			{Name: "syscall", SlotAddr: syms["got_syscall"]},
		}
		spec.Needed = []string{"libc.so"}
	})
	return lib
}

func loader(t *testing.T) func(string) (*elff.Binary, error) {
	t.Helper()
	libc := miniLibc(t)
	mid := midLib(t)
	return func(name string) (*elff.Binary, error) {
		switch name {
		case "libc.so":
			return libc, nil
		case "libmid.so":
			return mid, nil
		}
		return nil, &elffNotFound{name}
	}
}

type elffNotFound struct{ name string }

func (e *elffNotFound) Error() string { return "not found: " + e.name }

func TestAnalyzeLibraryInterface(t *testing.T) {
	libc := miniLibc(t)
	ifc, err := AnalyzeLibrary(libc, "libc.so", ident.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifc.Library != "libc.so" || len(ifc.Exports) != 3 {
		t.Fatalf("interface: %+v", ifc)
	}
	w, ok := ifc.ExportNamed("write")
	if !ok || !reflect.DeepEqual(w.Syscalls, []uint64{1}) {
		t.Fatalf("write: %+v", w)
	}
	sw, ok := ifc.ExportNamed("syscall")
	if !ok || sw.Wrapper == nil || sw.Wrapper.Reg != "rdi" {
		t.Fatalf("syscall wrapper: %+v", sw)
	}
	if len(sw.Syscalls) != 0 {
		t.Fatalf("wrapper export must carry no own syscalls: %v", sw.Syscalls)
	}
}

// TestInterfaceJSONRoundTrip: the cache stores an interface as its
// encoding/json form, so the round trip must be lossless.
func TestInterfaceJSONRoundTrip(t *testing.T) {
	libc := miniLibc(t)
	ifc, err := AnalyzeLibrary(libc, "libc.so", ident.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ifc)
	if err != nil {
		t.Fatal(err)
	}
	back := new(Interface)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ifc, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", ifc, back)
	}
}

func TestParamRefRoundTrip(t *testing.T) {
	for _, ref := range []Param{{Reg: "rdi"}, {Stack: true, Off: 8}} {
		r, err := ref.Ref()
		if err != nil {
			t.Fatal(err)
		}
		if got := paramFromRef(r); got != ref {
			t.Fatalf("round trip: %+v -> %+v", ref, got)
		}
	}
	if _, err := (Param{Reg: "bogus"}).Ref(); err == nil {
		t.Fatal("bogus register accepted")
	}
}

func TestProgramThroughDirectImport(t *testing.T) {
	main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("stub_write")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("stub_write")
		b.JmpMemRIP("got_write")
		b.Label("__code_end")
		b.Align(8)
		b.Label("got_write")
		b.Quad(0)
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Imports = []elff.Import{{Name: "write", SlotAddr: syms["got_write"]}}
		spec.Needed = []string{"libc.so"}
	})
	a := NewAnalyzer(loader(t), ident.Config{})
	rep, err := a.Program(main)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{1, 60}) || rep.FailOpen {
		t.Fatalf("syscalls: %v failopen=%v", rep.Syscalls, rep.FailOpen)
	}
	if !reflect.DeepEqual(rep.PerImport["write"], []uint64{1}) {
		t.Fatalf("per-import: %v", rep.PerImport)
	}
}

// TestLibraryExportDropsOutOfRangeValues: a constant at or above
// linux.SyscallSetBits reaching a syscall is an address or an
// artifact, not a syscall number. The program's own sites drop it, and
// a library export's site must drop it the same way instead of
// carrying it into the stitched set.
func TestLibraryExportDropsOutOfRangeValues(t *testing.T) {
	lib, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0000000000, func(b *asm.Builder) {
		b.Func("odd")
		b.MovRegImm32(x86.RAX, 0x1000)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "odd", Addr: syms["odd"]}}
	})
	main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("stub_odd")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("stub_odd")
		b.JmpMemRIP("got_odd")
		b.Label("__code_end")
		b.Align(8)
		b.Label("got_odd")
		b.Quad(0)
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Imports = []elff.Import{{Name: "odd", SlotAddr: syms["got_odd"]}}
		spec.Needed = []string{"libodd.so"}
	})
	a := NewAnalyzer(func(name string) (*elff.Binary, error) {
		if name == "libodd.so" {
			return lib, nil
		}
		return nil, &elffNotFound{name}
	}, ident.Config{})
	rep, err := a.Program(main)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{60}) || rep.FailOpen {
		t.Fatalf("syscalls: %v failopen=%v, want [60]", rep.Syscalls, rep.FailOpen)
	}
	if got := rep.PerImport["odd"]; len(got) != 0 {
		t.Fatalf("per-import odd: %v, want empty", got)
	}
}

func TestProgramThroughImportedWrapper(t *testing.T) {
	// The program calls libc's syscall() wrapper with a constant: the
	// wrapper parameter comes from libc's interface and the call site
	// resolves inside the main binary.
	main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RDI, 41) // socket
		b.CallLabel("stub_syscall")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("stub_syscall")
		b.JmpMemRIP("got_syscall")
		b.Label("__code_end")
		b.Align(8)
		b.Label("got_syscall")
		b.Quad(0)
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Imports = []elff.Import{{Name: "syscall", SlotAddr: syms["got_syscall"]}}
		spec.Needed = []string{"libc.so"}
	})
	a := NewAnalyzer(loader(t), ident.Config{})
	rep, err := a.Program(main)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{41, 60}) || rep.FailOpen {
		t.Fatalf("syscalls: %v failopen=%v", rep.Syscalls, rep.FailOpen)
	}
}

func TestTransitiveLibraryClosure(t *testing.T) {
	// main -> libmid.so:{logmsg, spawn}; logmsg -> libc write (1),
	// spawn -> libc syscall wrapper with 57, resolved inside libmid.
	main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("stub_logmsg")
		b.CallLabel("stub_spawn")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("stub_logmsg")
		b.JmpMemRIP("got_logmsg")
		b.Func("stub_spawn")
		b.JmpMemRIP("got_spawn")
		b.Label("__code_end")
		b.Align(8)
		b.Label("got_logmsg")
		b.Quad(0)
		b.Label("got_spawn")
		b.Quad(0)
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Imports = []elff.Import{
			{Name: "logmsg", SlotAddr: syms["got_logmsg"]},
			{Name: "spawn", SlotAddr: syms["got_spawn"]},
		}
		spec.Needed = []string{"libmid.so"}
	})
	a := NewAnalyzer(loader(t), ident.Config{})
	rep, err := a.Program(main)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{1, 57, 60}) || rep.FailOpen {
		t.Fatalf("syscalls: %v failopen=%v", rep.Syscalls, rep.FailOpen)
	}
	// Both libraries must have cached interfaces now.
	if len(a.interfaces) != 2 {
		t.Fatalf("interfaces: %v", a.interfaces)
	}
	// spawn's closed set contains the wrapper-resolved fork.
	if got := rep.PerImport["spawn"]; !reflect.DeepEqual(got, []uint64{57}) {
		t.Fatalf("spawn: %v", got)
	}
}

func TestProgramThroughStackParamImportWrapper(t *testing.T) {
	// A musl/Go-flavoured libc whose raw-syscall wrapper takes the
	// number on the stack: the interface records the stack slot and the
	// program's call sites resolve against it.
	goLibc, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0200000000, func(b *asm.Builder) {
		b.Func("rawsyscall")
		b.MovRegMem(x86.RAX, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 8})
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "rawsyscall", Addr: syms["rawsyscall"]}}
	})

	main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
		b.Func("_start")
		b.SubRegImm(x86.RSP, 16)
		b.MovMemImm32(x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1}, 318) // getrandom
		b.CallLabel("stub_rawsyscall")
		b.AddRegImm(x86.RSP, 16)
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("stub_rawsyscall")
		b.JmpMemRIP("got_rawsyscall")
		b.Label("__code_end")
		b.Align(8)
		b.Label("got_rawsyscall")
		b.Quad(0)
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Imports = []elff.Import{{Name: "rawsyscall", SlotAddr: syms["got_rawsyscall"]}}
		spec.Needed = []string{"libgo.so"}
	})

	a := NewAnalyzer(func(name string) (*elff.Binary, error) {
		if name == "libgo.so" {
			return goLibc, nil
		}
		return nil, &elffNotFound{name}
	}, ident.Config{})
	rep, err := a.Program(main)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{60, 318}) || rep.FailOpen {
		t.Fatalf("syscalls: %v failopen=%v", rep.Syscalls, rep.FailOpen)
	}
	// The interface must carry the stack-slot parameter.
	ifc := a.interfaces["libgo.so"]
	exp, _ := ifc.ExportNamed("rawsyscall")
	if exp.Wrapper == nil || !exp.Wrapper.Stack || exp.Wrapper.Off != 8 {
		t.Fatalf("wrapper param: %+v", exp.Wrapper)
	}
}

func TestMissingLibraryFailsOpen(t *testing.T) {
	main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Needed = []string{"libnothere.so"}
	})
	a := NewAnalyzer(loader(t), ident.Config{})
	if _, err := a.Program(main); err == nil {
		t.Fatal("missing library must surface as an error")
	}
}

func TestStaticProgramNeedsNoInterfaces(t *testing.T) {
	main, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 39)
		b.Syscall()
		b.Ret()
	}, nil)
	a := NewAnalyzer(loader(t), ident.Config{})
	rep, err := a.Program(main)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{39}) {
		t.Fatalf("syscalls: %v", rep.Syscalls)
	}
	if len(a.interfaces) != 0 {
		t.Fatal("no interfaces expected for a static program")
	}
}
