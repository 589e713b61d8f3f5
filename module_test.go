package bside

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// moduleFixture is a static main program that only exits, plus two
// dlopen-style modules: handler exports a function that makes
// epoll_wait(232), wrapper exports a raw syscall wrapper.
type moduleFixture struct{ main, handler, wrapper string }

func writeModuleFixture(t *testing.T) moduleFixture {
	t.Helper()
	dir := t.TempDir()
	fx := moduleFixture{
		main:    filepath.Join(dir, "main"),
		handler: filepath.Join(dir, "ngx_module.so"),
		wrapper: filepath.Join(dir, "wrap_module.so"),
	}
	main, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
	}, nil)
	mustWrite(t, main, fx.main)

	handler, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0500000000, func(b *asm.Builder) {
		b.Func("mod_handler")
		b.MovRegImm32(x86.RAX, 232)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "mod_handler", Addr: syms["mod_handler"]}}
	})
	mustWrite(t, handler, fx.handler)

	wrapper, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0600000000, func(b *asm.Builder) {
		b.Func("do_raw_syscall")
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "do_raw_syscall", Addr: syms["do_raw_syscall"]}}
	})
	mustWrite(t, wrapper, fx.wrapper)
	return fx
}

// TestDlopenModules checks §4.5's runtime-module handling: modules
// named by the user are analyzed alongside the main binary and their
// exports' syscalls union into the result.
func TestDlopenModules(t *testing.T) {
	fx := writeModuleFixture(t)

	// Without the module: only exit.
	plain, err := NewAnalyzer(Options{}).AnalyzeFile(fx.main)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Has(232) {
		t.Fatal("module syscall leaked into plain analysis")
	}

	// With the module: union includes epoll_wait.
	withMod, err := NewAnalyzer(Options{Modules: []string{fx.handler}}).AnalyzeFile(fx.main)
	if err != nil {
		t.Fatal(err)
	}
	if !withMod.Has(232) || !withMod.Has(60) {
		t.Fatalf("module union: %v", withMod.Syscalls)
	}
	if withMod.FailOpen {
		t.Fatal("unexpected fail-open")
	}
}

// TestDlopenModuleWrapperFailsOpen: a module exporting a syscall
// wrapper cannot be bounded statically.
func TestDlopenModuleWrapperFailsOpen(t *testing.T) {
	fx := writeModuleFixture(t)
	res, err := NewAnalyzer(Options{Modules: []string{fx.wrapper}}).AnalyzeFile(fx.main)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailOpen {
		t.Fatal("wrapper-exporting module must fail open")
	}
}

// TestSharedObjectExportingWrapperFailsOpen: the wrapper module
// analyzed on its own follows the module rule, through every entry
// path and cache state.
func TestSharedObjectExportingWrapperFailsOpen(t *testing.T) {
	fx := writeModuleFixture(t)
	data, err := os.ReadFile(fx.wrapper)
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	for _, run := range []struct {
		name    string
		analyze func() (*Analysis, error)
		cached  bool
	}{
		{"AnalyzeBytes", func() (*Analysis, error) { return NewAnalyzer(Options{}).AnalyzeBytes(data) }, false},
		{"AnalyzeFile", func() (*Analysis, error) { return NewAnalyzer(Options{}).AnalyzeFile(fx.wrapper) }, false},
		{"cold CacheDir", func() (*Analysis, error) { return NewAnalyzer(Options{CacheDir: cacheDir}).AnalyzeFile(fx.wrapper) }, false},
		{"warm CacheDir", func() (*Analysis, error) { return NewAnalyzer(Options{CacheDir: cacheDir}).AnalyzeFile(fx.wrapper) }, true},
	} {
		res, err := run.analyze()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if !res.FailOpen || res.Cached != run.cached {
			t.Errorf("%s: fail_open %v cached %v, want fail-open with cached %v", run.name, res.FailOpen, res.Cached, run.cached)
		}
	}
}

// TestModulesWithCacheDir: a module analyzer renders one record cold,
// warm and without a cache. The module-free summary it stores is what
// a module-free analyzer over the same directory then reads back.
func TestModulesWithCacheDir(t *testing.T) {
	fx := writeModuleFixture(t)
	cacheDir := t.TempDir()
	record := func(opts Options, wantCached bool) []byte {
		t.Helper()
		res, err := NewAnalyzer(opts).AnalyzeFile(fx.main)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached != wantCached {
			t.Fatalf("%+v: cached %v, want %v", opts, res.Cached, wantCached)
		}
		out, err := json.Marshal(res.Record())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mods := []string{fx.handler}
	cacheless := record(Options{Modules: mods}, false)
	cold := record(Options{Modules: mods, CacheDir: cacheDir}, false)
	warm := record(Options{Modules: mods, CacheDir: cacheDir}, false)
	if !bytes.Equal(cold, cacheless) || !bytes.Equal(warm, cacheless) {
		t.Fatalf("module records differ: cache-less %s, cold %s, warm %s", cacheless, cold, warm)
	}

	plain := record(Options{}, false)
	if hit := record(Options{CacheDir: cacheDir}, true); !bytes.Equal(hit, plain) {
		t.Fatalf("module-free warm hit %s, want its cold answer %s", hit, plain)
	}
	if bytes.Equal(plain, cacheless) {
		t.Fatalf("module union missing: %s", cacheless)
	}
}

func mustWrite(t testing.TB, bin *elff.Binary, path string) {
	t.Helper()
	if err := bin.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
