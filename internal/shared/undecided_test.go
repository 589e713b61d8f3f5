package shared

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"bside/internal/asm"
	"bside/internal/cache"
	"bside/internal/elff"
	"bside/internal/faults"
	"bside/internal/guard"
	"bside/internal/ident"
	"bside/internal/symex"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// tightBudget lets the test libraries' interfaces complete but not the
// identification of hungryImporter's sites.
func tightBudget() *symex.Budget {
	return &symex.Budget{MaxSteps: 40, MaxForks: 1 << 20, MaxVisits: 3}
}

// hungryImporter builds a dynamic executable that calls write through
// libmid.so and carries 24 plain syscall sites, each behind one
// data-independent branch, so identification spends steps on every
// site.
func hungryImporter(t testing.TB) *elff.Binary {
	t.Helper()
	main, _ := testbin.Build(t, elff.KindDynamic, func(b *asm.Builder) {
		b.Func("_start")
		b.CallLabel("stub_write")
		for i := 0; i < 24; i++ {
			lbl := fmt.Sprintf("site%d", i)
			b.MovRegImm32(x86.RAX, uint32(i))
			b.CmpRegImm(x86.R12, int32(i))
			b.Jcc(x86.CondE, lbl)
			b.IncReg(x86.R13)
			b.Label(lbl)
			b.Syscall()
		}
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

// upgradedLibcLoader is loader with libc rebuilt from different bytes
// (write also calls fsync).
func upgradedLibcLoader(t *testing.T) func(string) (*elff.Binary, error) {
	t.Helper()
	libc, _ := testbin.BuildAt(t, elff.KindShared, 0x7F0000000000, func(b *asm.Builder) {
		b.Func("write")
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.MovRegImm32(x86.RAX, 74)
		b.Syscall()
		b.Ret()
	}, func(spec *elff.Spec, syms map[string]uint64) {
		spec.Exports = []elff.Export{{Name: "write", Addr: syms["write"]}}
	})
	base := loader(t)
	return func(name string) (*elff.Binary, error) {
		if name == "libc.so" {
			return libc, nil
		}
		return base(name)
	}
}

func openStore(t *testing.T) *cache.Store {
	t.Helper()
	st, err := cache.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func cachedAnalyzer(t *testing.T, store *cache.Store, conf ident.Config) *Analyzer {
	a := NewAnalyzer(loader(t), conf)
	a.Cache = store
	return a
}

var errRecomputed = errors.New("test: pipeline ran")

// replay asks a for bin's summary with every pipeline stage of bin armed
// to fail with errRecomputed: only a stored verdict answers otherwise.
func replay(a *Analyzer, bin *elff.Binary) error {
	defer faults.Activate(faults.Rule{Point: faults.Stage, Match: bin.Hash, Err: errRecomputed})()
	_, _, err := a.ComputeSummaryCtx(context.Background(), bin)
	return err
}

// TestUndecidedVerdictReplayed: a step-limited verdict is stored and a
// fresh analyzer answers it from the store with the same text, without
// running a pipeline stage — while the summary lookups still miss.
func TestUndecidedVerdictReplayed(t *testing.T) {
	store := openStore(t)
	bin := hungryImporter(t)
	_, _, err := cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()}).ComputeSummaryCtx(context.Background(), bin)
	be, ok := err.(*ident.BudgetError)
	if !ok || be.Stage != ident.StageIdentify || be.Cause != symex.CauseSteps {
		t.Fatalf("cold verdict %v, want an identification/steps BudgetError", err)
	}

	a := cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()})
	before := store.Stats()
	got := replay(a, bin)
	if got == nil || got.Error() != err.Error() || !errors.Is(got, ident.ErrTimeout) {
		t.Fatalf("replayed verdict %v, want %v", got, err)
	}
	if store.Stats().Hits == before.Hits {
		t.Fatal("the replay was not a store hit")
	}
	if _, ok := a.CachedSummary(bin.Hash, bin.Needed); ok {
		t.Fatal("an undecided entry answered CachedSummary")
	}
	if _, ok := a.CachedSummaryByHash(bin.Hash); ok {
		t.Fatal("an undecided entry answered CachedSummaryByHash")
	}
}

// TestUndecidedNeverStored: verdicts that depend on the wall clock or
// the caller, injected errors and panics are never stored, so the next
// run recomputes. The library interfaces come from the store, so each
// failure is the program's own.
func TestUndecidedNeverStored(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	past := time.Now().Add(-time.Second)
	background := func() (context.Context, func()) { return context.Background(), func() {} }
	cause := func(c symex.Cause) func(error) bool {
		return func(err error) bool {
			be, ok := err.(*ident.BudgetError)
			return ok && be.Cause == c
		}
	}
	cases := []struct {
		name  string
		setup func(a *Analyzer, bin *elff.Binary) (ctx context.Context, restore func())
		want  func(error) bool
	}{
		{"timeout", func(a *Analyzer, _ *elff.Binary) (context.Context, func()) {
			a.Timeout = time.Nanosecond
			return background()
		}, cause(symex.CauseDeadline)},
		{"expired-ctx", func(*Analyzer, *elff.Binary) (context.Context, func()) {
			return context.WithDeadline(context.Background(), past)
		}, func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
		{"canceled-ctx", func(*Analyzer, *elff.Binary) (context.Context, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, func() {}
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"budget-deadline", func(a *Analyzer, _ *elff.Binary) (context.Context, func()) {
			a.Config.Budget.Deadline = past
			return background()
		}, cause(symex.CauseDeadline)},
		{"budget-cancel", func(a *Analyzer, _ *elff.Binary) (context.Context, func()) {
			a.Config.Budget.Cancel = closed
			return background()
		}, cause(symex.CauseCancel)},
		{"fault-timeout", func(_ *Analyzer, bin *elff.Binary) (context.Context, func()) {
			return context.Background(), faults.Activate(faults.Rule{Point: faults.Stage, Match: "identify:" + bin.Hash, Err: ident.ErrTimeout})
		}, func(err error) bool { return err == ident.ErrTimeout }},
		{"fault-panic", func(_ *Analyzer, bin *elff.Binary) (context.Context, func()) {
			return context.Background(), faults.Activate(faults.Rule{Point: faults.Stage, Match: "identify:" + bin.Hash, Panic: true})
		}, func(err error) bool { _, ok := guard.AsPanic(err); return ok }},
		// The last identification unit panics after the budget tripped.
		{"unit-panic", func(a *Analyzer, _ *elff.Binary) (context.Context, func()) {
			a.Config.Workers = 8
			return context.Background(), faults.Activate(faults.Rule{Point: faults.IdentUnit, Match: "23", Panic: true})
		}, func(err error) bool { _, ok := guard.AsPanic(err); return ok }},
	}
	bin := hungryImporter(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := openStore(t)
			if _, _, err := cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()}).ComputeSummaryCtx(context.Background(), writeImporter(t, 1)); err != nil {
				t.Fatalf("warming the library interfaces: %v", err)
			}
			for run := 0; run < 2; run++ {
				a := cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()})
				ctx, restore := tc.setup(a, bin)
				_, _, err := a.ComputeSummaryCtx(ctx, bin)
				restore()
				if !tc.want(err) {
					t.Fatalf("run %d: unexpected outcome %v", run, err)
				}
			}
			if err := replay(cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()}), bin); err != errRecomputed {
				t.Fatalf("a verdict was stored: the next run got %v", err)
			}
		})
	}
}

// TestUndecidedStoredUnderFarDeadline: a step-limited verdict reached
// under a context deadline that never came close (the resident
// service's per-request deadline) is stored.
func TestUndecidedStoredUnderFarDeadline(t *testing.T) {
	store := openStore(t)
	bin := hungryImporter(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, _, err := cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()}).ComputeSummaryCtx(ctx, bin)
	if be, ok := err.(*ident.BudgetError); !ok || be.Cause != symex.CauseSteps {
		t.Fatalf("verdict %v, want a steps BudgetError", err)
	}
	if got := replay(cachedAnalyzer(t, store, ident.Config{Budget: tightBudget()}), bin); got == nil || got.Error() != err.Error() {
		t.Fatalf("replay %v, want the stored %v", got, err)
	}
}
