package shared

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bside/internal/asm"
	"bside/internal/cache"
	"bside/internal/elff"
	"bside/internal/ident"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// writeImporter builds a dynamic executable that calls write through
// the GOT and exits; salt differentiates the images (and so their
// content hashes).
func writeImporter(t testing.TB, salt uint32) *elff.Binary {
	t.Helper()
	main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.R10, salt)
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
		spec.Needed = []string{"libmid.so"}
	})
	return main
}

// TestConcurrentProgramsShareOneInterfaceComputation is the §4.5
// scalability contract under concurrency: many executables sharing a
// dependency chain must trigger exactly one load and one interface
// computation per library, however the analyses are scheduled.
func TestConcurrentProgramsShareOneInterfaceComputation(t *testing.T) {
	libc := miniLibc(t)
	mid := midLib(t)
	var loads sync.Map // name -> *atomic.Int64
	counting := func(name string) (*elff.Binary, error) {
		c, _ := loads.LoadOrStore(name, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		switch name {
		case "libc.so":
			return libc, nil
		case "libmid.so":
			return mid, nil
		}
		return nil, &elffNotFound{name}
	}

	a := NewAnalyzer(counting, ident.Config{})
	const workers = 8
	results := make([]*ProgramReport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			main := writeImporter(t, uint32(1000+i))
			results[i], errs[i] = a.Program(main)
		}(i)
	}
	wg.Wait()

	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Syscalls, []uint64{1, 60}) || results[i].FailOpen {
			t.Fatalf("worker %d: %v failopen=%v", i, results[i].Syscalls, results[i].FailOpen)
		}
	}
	for _, name := range []string{"libc.so", "libmid.so"} {
		c, ok := loads.Load(name)
		if !ok {
			t.Fatalf("%s never loaded", name)
		}
		if n := c.(*atomic.Int64).Load(); n != 1 {
			t.Fatalf("%s loaded %d times, want exactly 1", name, n)
		}
	}
	if ifcs := a.Interfaces(); len(ifcs) != 2 {
		t.Fatalf("interfaces: %d", len(ifcs))
	}
}

// TestConcurrentModulesAndPrograms mixes Program and Module calls on
// one analyzer under the race detector.
func TestConcurrentModulesAndPrograms(t *testing.T) {
	a := NewAnalyzer(loader(t), ident.Config{})
	module, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0300000000, func(b *asm.Builder) {
		b.Func("mod_entry")
		b.MovRegImm32(x86.RAX, 232)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "mod_entry", Addr: syms["mod_entry"]}}
	})

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				main := writeImporter(t, uint32(2000+i))
				if rep, err := a.Program(main); err != nil || rep.FailOpen {
					t.Errorf("program %d: %v", i, err)
				}
			} else {
				set, failOpen, err := a.Module(module, "m.so", nil)
				if err != nil || failOpen || !reflect.DeepEqual(set, []uint64{232}) {
					t.Errorf("module %d: %v %v %v", i, set, failOpen, err)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestProgramSummaryCacheHitAndDependencyBust exercises the
// content-addressed program cache end to end: a second process-like
// analyzer serves the summary from disk without analysis, and swapping
// a dependency image for different content busts the entry even though
// the executable itself is unchanged.
func TestProgramSummaryCacheHitAndDependencyBust(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	main := writeImporter(t, 7)

	a1 := NewAnalyzer(loader(t), ident.Config{})
	a1.Cache = store
	sum1, rep1, err := a1.ProgramSummary(main)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Cached || rep1 == nil {
		t.Fatalf("first run must compute: cached=%v rep=%v", sum1.Cached, rep1)
	}
	if !reflect.DeepEqual(sum1.Syscalls, []uint64{1, 60}) {
		t.Fatalf("syscalls: %v", sum1.Syscalls)
	}

	// A fresh analyzer over the same store: full hit, no report, and no
	// library analysis (the interfaces map stays empty).
	a2 := NewAnalyzer(loader(t), ident.Config{})
	a2.Cache = store
	sum2, rep2, err := a2.ProgramSummary(main)
	if err != nil {
		t.Fatal(err)
	}
	if !sum2.Cached || rep2 != nil {
		t.Fatalf("second run must hit: cached=%v rep=%v", sum2.Cached, rep2)
	}
	if !reflect.DeepEqual(sum2.Syscalls, sum1.Syscalls) || sum2.Wrappers != sum1.Wrappers {
		t.Fatalf("cached summary drifted: %+v vs %+v", sum2, sum1)
	}
	if len(a2.Interfaces()) != 0 {
		t.Fatal("cache hit must not analyze libraries")
	}

	// Same executable, upgraded libc (write now also does fsync): the
	// dependency fingerprint changes, the entry is stale, and the new
	// result reflects the new library.
	libc2, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0000000000, func(b *asm.Builder) {
		b.Func("write")
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.MovRegImm32(x86.RAX, 74) // fsync
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "write", Addr: syms["write"]}}
	})
	mid := midLib(t)
	a3 := NewAnalyzer(func(name string) (*elff.Binary, error) {
		switch name {
		case "libc.so":
			return libc2, nil
		case "libmid.so":
			return mid, nil
		}
		return nil, &elffNotFound{name}
	}, ident.Config{})
	a3.Cache = store
	sum3, rep3, err := a3.ProgramSummary(main)
	if err != nil {
		t.Fatal(err)
	}
	if sum3.Cached || rep3 == nil {
		t.Fatal("upgraded dependency must bust the program entry")
	}
	if !reflect.DeepEqual(sum3.Syscalls, []uint64{1, 60, 74}) {
		t.Fatalf("post-upgrade syscalls: %v", sum3.Syscalls)
	}
}

// TestInterfaceContentCache: the once-per-library artifact is reusable
// across analyzers through the store.
func TestInterfaceContentCache(t *testing.T) {
	store, err := cache.Open(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	var loads atomic.Int64
	libc := miniLibc(t)
	counting := func(name string) (*elff.Binary, error) {
		if name != "libc.so" {
			return nil, &elffNotFound{name}
		}
		loads.Add(1)
		return libc, nil
	}

	mkMain := func(salt uint32) *elff.Binary {
		main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
			b.Func("_start")
			b.MovRegImm32(x86.R10, salt)
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
		return main
	}

	// Per-binary kinds other than "interface" share the store, so the
	// guard against re-analysis counts interface-kind entries on disk,
	// not total stores.
	countInterfaces := func() int {
		n := 0
		_ = filepath.WalkDir(filepath.Join(store.Dir(), "interface"), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				n++
			}
			return nil
		})
		return n
	}

	a1 := NewAnalyzer(counting, ident.Config{})
	a1.Cache = store
	if _, err := a1.Program(mkMain(1)); err != nil {
		t.Fatal(err)
	}
	interfacesAfterFirst := countInterfaces()
	if store.Stats().Stores == 0 || interfacesAfterFirst == 0 {
		t.Fatal("nothing persisted")
	}

	// New analyzer, different main binary, same libc: the interface
	// must come from the store (no second AnalyzeLibrary, evidenced by
	// no new interface store).
	a2 := NewAnalyzer(counting, ident.Config{})
	a2.Cache = store
	rep, err := a2.Program(mkMain(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Syscalls, []uint64{1, 60}) {
		t.Fatalf("syscalls: %v", rep.Syscalls)
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Fatalf("interface not served from store: %+v", st)
	}
	// The libc interface entry must not be re-analyzed or rewritten:
	// the interface-kind entry count is unchanged.
	if n := countInterfaces(); n != interfacesAfterFirst {
		t.Fatalf("interface entries grew: %d (first run ended at %d)", n, interfacesAfterFirst)
	}
}

// TestColdCacheStoresOnlyPerBinaryKinds: the store holds per-binary
// verdicts only. A cold cached analysis of a program with its own
// syscall site and a library closure writes library interfaces and the
// program summary; per-function memo entries never reach the disk.
func TestColdCacheStoresOnlyPerBinaryKinds(t *testing.T) {
	store, err := cache.Open(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(loader(t), ident.Config{})
	a.Cache = store
	sum, _, err := a.ComputeSummary(writeImporter(t, 4242))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum.Syscalls, []uint64{1, 60}) {
		t.Fatalf("syscalls: %v", sum.Syscalls)
	}

	ents, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() {
			kinds[e.Name()] = true
		}
	}
	if !kinds[kindInterface] || !kinds[kindProgram] {
		t.Fatalf("cold run did not persist its interfaces and summary: %v", kinds)
	}
	for k := range kinds {
		if k != kindInterface && k != kindProgram && k != kindUndecided {
			t.Fatalf("store holds a %q partition; only per-binary kinds belong there", k)
		}
	}
}

// TestResolutionScopedToOwnClosure: a shared batch analyzer holds
// interfaces from many programs; a symbol with no provider in a
// binary's own dependency closure must fail open even when some other
// program's library happens to export it. Anything else would make
// results — and cache entries — depend on analysis order.
func TestResolutionScopedToOwnClosure(t *testing.T) {
	libX, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0700000000, func(b *asm.Builder) {
		b.Func("foo")
		b.MovRegImm32(x86.RAX, 40) // sendfile
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "foo", Addr: syms["foo"]}}
	})
	libY, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0800000000, func(b *asm.Builder) {
		b.Func("bar")
		b.MovRegImm32(x86.RAX, 39)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "bar", Addr: syms["bar"]}}
	})
	load := func(name string) (*elff.Binary, error) {
		switch name {
		case "libx.so":
			return libX, nil
		case "liby.so":
			return libY, nil
		}
		return nil, &elffNotFound{name}
	}
	mkMain := func(needed string) *elff.Binary {
		main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
			b.Func("_start")
			b.CallLabel("stub_foo")
			b.MovRegImm32(x86.RAX, 60)
			b.Syscall()
			b.Ret()
			b.Func("stub_foo")
			b.JmpMemRIP("got_foo")
			b.Label("__code_end")
			b.Align(8)
			b.Label("got_foo")
			b.Quad(0)
		}, func(spec *elff.Spec, syms map[string]uint64) {
			spec.Imports = []elff.Import{{Name: "foo", SlotAddr: syms["got_foo"]}}
			spec.Needed = []string{needed}
		})
		return main
	}

	a := NewAnalyzer(load, ident.Config{})
	// First program links libx.so: foo resolves, bounded result.
	rep1, err := a.Program(mkMain("libx.so"))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.FailOpen || !reflect.DeepEqual(rep1.Syscalls, []uint64{40, 60}) {
		t.Fatalf("first program: %v failopen=%v", rep1.Syscalls, rep1.FailOpen)
	}
	// Second program links only liby.so, which does not provide foo.
	// libx.so's interface is sitting in the analyzer, but it is outside
	// this program's closure: the call must stay unresolvable.
	rep2, err := a.Program(mkMain("liby.so"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.FailOpen {
		t.Fatalf("foo resolved outside the program's closure: %v", rep2.Syscalls)
	}
}

// TestMaxCFGInsnsDoesNotBustInterfaceEntries: MaxCFGInsns bounds only
// the main executable's CFG recovery, so retuning it must re-key
// program entries but keep serving the fleet's library interfaces.
func TestMaxCFGInsnsDoesNotBustInterfaceEntries(t *testing.T) {
	store, err := cache.Open(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	main := writeImporter(t, 31)

	a1 := NewAnalyzer(loader(t), ident.Config{})
	a1.Cache = store
	if _, _, err := a1.ProgramSummary(main); err != nil {
		t.Fatal(err)
	}

	a2 := NewAnalyzer(loader(t), ident.Config{})
	a2.Cache = store
	a2.MaxCFGInsns = 40_000
	sum, _, err := a2.ProgramSummary(main)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached {
		t.Fatal("program entry must re-key under a different MaxCFGInsns")
	}
	if !reflect.DeepEqual(sum.Syscalls, []uint64{1, 60}) {
		t.Fatalf("syscalls: %v", sum.Syscalls)
	}
	// The miss re-ran the main binary only: both library interfaces
	// were served from the store (interfaces map filled via cache, and
	// the only new store is the re-keyed program entry).
	st := store.Stats()
	if st.Hits < 2 {
		t.Fatalf("interfaces not served from store: %+v", st)
	}
}

// TestModuleResolvesThroughHostScope: a dlopen plugin importing a
// symbol with no DT_NEEDED of its own (the common plugin shape —
// runtime resolution leans on the host's loaded libraries) is bounded
// when the host is given, and fails open when it is not.
func TestModuleResolvesThroughHostScope(t *testing.T) {
	module, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0900000000, func(b *asm.Builder) {
		b.Func("plugin_entry")
		b.CallLabel("stub_write")
		b.Ret()
		b.Func("stub_write")
		b.JmpMemRIP("got_write")
		b.Label("__code_end")
		b.Align(8)
		b.Label("got_write")
		b.Quad(0)
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "plugin_entry", Addr: syms["plugin_entry"]}}
		spec.Imports = []elff.Import{{Name: "write", SlotAddr: syms["got_write"]}}
		// Deliberately no Needed: the plugin relies on host-loaded libc.
	})
	host := writeImporter(t, 77) // Needed: libmid.so -> libc.so

	a := NewAnalyzer(loader(t), ident.Config{})
	set, failOpen, err := a.Module(module, "plugin.so", host)
	if err != nil {
		t.Fatal(err)
	}
	if failOpen || !reflect.DeepEqual(set, []uint64{1}) {
		t.Fatalf("host-scoped module: %v failopen=%v", set, failOpen)
	}

	// Without a host there is nothing to resolve against: fail open.
	b := NewAnalyzer(loader(t), ident.Config{})
	_, failOpen, err = b.Module(module, "plugin.so", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !failOpen {
		t.Fatal("hostless unresolvable import must fail open")
	}
}

// TestSameNamedModulesDoNotShareMemo: two distinct module images that
// share a base filename (plugins/a/hook.so vs plugins/b/hook.so) must
// not reuse each other's memoized export sets.
func TestSameNamedModulesDoNotShareMemo(t *testing.T) {
	mkModule := func(base uint64, nr uint32) *elff.Binary {
		mod, _ := testbin.BuildAt(t, elff.KindShared, base, func(b *asm.Builder) {
			b.Func("init")
			b.MovRegImm32(x86.RAX, nr)
			b.Syscall()
			b.Ret()
		}, func(spec *elff.Spec, syms map[string]uint64) {
			spec.Exports = []elff.Export{{Name: "init", Addr: syms["init"]}}
		})
		return mod
	}
	a := NewAnalyzer(loader(t), ident.Config{})
	setA, _, err := a.Module(mkModule(0x7F0A00000000, 41), "hook.so", nil)
	if err != nil {
		t.Fatal(err)
	}
	setB, _, err := a.Module(mkModule(0x7F0B00000000, 42), "hook.so", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(setA, []uint64{41}) || !reflect.DeepEqual(setB, []uint64{42}) {
		t.Fatalf("same-named modules cross-contaminated: %v / %v", setA, setB)
	}
}

// TestUnderlinkedLibraryResolvesViaProgramScope: a library calling a
// symbol it never declares a DT_NEEDED provider for (underlinking —
// the dynamic linker resolves it from the process's global scope) is
// bounded when the program's closure provides it, and the result does
// not leak into a program whose closure does not.
func TestUnderlinkedLibraryResolvesViaProgramScope(t *testing.T) {
	// liba imports write but has NO DT_NEEDED at all.
	liba, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0C00000000, func(b *asm.Builder) {
		b.Func("logu")
		b.CallLabel("stub_write")
		b.Ret()
		b.Func("stub_write")
		b.JmpMemRIP("got_write")
		b.Label("__code_end")
		b.Align(8)
		b.Label("got_write")
		b.Quad(0)
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "logu", Addr: syms["logu"]}}
		spec.Imports = []elff.Import{{Name: "write", SlotAddr: syms["got_write"]}}
	})
	libc := miniLibc(t)
	load := func(name string) (*elff.Binary, error) {
		switch name {
		case "liba.so":
			return liba, nil
		case "libc.so":
			return libc, nil
		}
		return nil, &elffNotFound{name}
	}
	mkMain := func(salt uint32, needed ...string) *elff.Binary {
		main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
			b.Func("_start")
			b.MovRegImm32(x86.R10, salt)
			b.CallLabel("stub_logu")
			b.MovRegImm32(x86.RAX, 60)
			b.Syscall()
			b.Ret()
			b.Func("stub_logu")
			b.JmpMemRIP("got_logu")
			b.Label("__code_end")
			b.Align(8)
			b.Label("got_logu")
			b.Quad(0)
		}, func(spec *elff.Spec, syms map[string]uint64) {
			spec.Imports = []elff.Import{{Name: "logu", SlotAddr: syms["got_logu"]}}
			spec.Needed = needed
		})
		return main
	}

	a := NewAnalyzer(load, ident.Config{})
	// Program linking liba + libc: write resolves via the program's
	// global scope even though liba never declares libc.
	rep1, err := a.Program(mkMain(1, "liba.so", "libc.so"))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.FailOpen || !reflect.DeepEqual(rep1.Syscalls, []uint64{1, 60}) {
		t.Fatalf("underlinked resolution: %v failopen=%v", rep1.Syscalls, rep1.FailOpen)
	}
	// Program linking only liba: no provider in ITS scope — fail open,
	// and the previous program's memoized resolution must not leak in.
	rep2, err := a.Program(mkMain(2, "liba.so"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.FailOpen {
		t.Fatalf("scope leaked across programs: %v", rep2.Syscalls)
	}
}

// TestMutuallyImportingLibrariesMemoizeCompletely: libp.pfun and
// libq.qfun import each other (resolved through the program's global
// scope). Querying pfun first must not leave an under-approximated
// memo entry for qfun that a later program — or the persistent cache —
// would be served.
func TestMutuallyImportingLibrariesMemoizeCompletely(t *testing.T) {
	mkLib := func(base uint64, exported string, nr uint32, imported string) *elff.Binary {
		lib, _ := testbin.BuildAt(t, elff.KindShared, base, func(b *asm.Builder) {
			b.Func(exported)
			b.MovRegImm32(x86.RAX, nr)
			b.Syscall()
			b.CallLabel("stub_peer")
			b.Ret()
			b.Func("stub_peer")
			b.JmpMemRIP("got_peer")
			b.Label("__code_end")
			b.Align(8)
			b.Label("got_peer")
			b.Quad(0)
		}, func(spec *elff.Spec, syms map[string]uint64) {
			spec.Exports = []elff.Export{{Name: exported, Addr: syms[exported]}}
			spec.Imports = []elff.Import{{Name: imported, SlotAddr: syms["got_peer"]}}
			// No DT_NEEDED: the peer resolves via the program scope.
		})
		return lib
	}
	libp := mkLib(0x7F0D00000000, "pfun", 100, "qfun")
	libq := mkLib(0x7F0E00000000, "qfun", 101, "pfun")
	load := func(name string) (*elff.Binary, error) {
		switch name {
		case "libp.so":
			return libp, nil
		case "libq.so":
			return libq, nil
		}
		return nil, &elffNotFound{name}
	}
	mkMain := func(salt uint32, imported string) *elff.Binary {
		main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
			b.Func("_start")
			b.MovRegImm32(x86.R10, salt)
			b.CallLabel("stub_f")
			b.MovRegImm32(x86.RAX, 60)
			b.Syscall()
			b.Ret()
			b.Func("stub_f")
			b.JmpMemRIP("got_f")
			b.Label("__code_end")
			b.Align(8)
			b.Label("got_f")
			b.Quad(0)
		}, func(spec *elff.Spec, syms map[string]uint64) {
			spec.Imports = []elff.Import{{Name: imported, SlotAddr: syms["got_f"]}}
			spec.Needed = []string{"libp.so", "libq.so"}
		})
		return main
	}

	a := NewAnalyzer(load, ident.Config{})
	rep1, err := a.Program(mkMain(1, "pfun"))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.FailOpen || !reflect.DeepEqual(rep1.Syscalls, []uint64{60, 100, 101}) {
		t.Fatalf("pfun-first: %v failopen=%v", rep1.Syscalls, rep1.FailOpen)
	}
	// Same analyzer, same closure: qfun's closed set must be complete.
	rep2, err := a.Program(mkMain(2, "qfun"))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FailOpen || !reflect.DeepEqual(rep2.Syscalls, []uint64{60, 100, 101}) {
		t.Fatalf("qfun-second under-approximated by cycle memo: %v", rep2.Syscalls)
	}
}
