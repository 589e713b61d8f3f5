package ident

import (
	"errors"
	"fmt"
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/faults"
	"bside/internal/guard"
	"bside/internal/symex"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// forkingSites builds a program of n plain syscall sites, each behind
// one data-independent branch: wrapper detection resolves every site
// with the use-define scan (no symbolic steps), and identification
// spends steps on every site.
func forkingSites(t *testing.T, n int) *cfg.Graph {
	t.Helper()
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < n; i++ {
			lbl := fmt.Sprintf("site%d", i)
			b.MovRegImm32(x86.RAX, uint32(i))
			b.CmpRegImm(x86.R12, int32(i))
			b.Jcc(x86.CondE, lbl)
			b.IncReg(x86.R13)
			b.Label(lbl)
			b.Syscall()
		}
		b.Ret()
	}, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// guardedWrappers builds a program of n register wrappers (the number
// arrives in %rdi, then pad nops precede the syscall), each called from
// callers sites behind a data-independent branch: wrapper detection
// spends steps in every wrapper, and identification spends steps on
// every call site.
func guardedWrappers(t *testing.T, n, callers, pad int) *cfg.Graph {
	t.Helper()
	bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < n; i++ {
			for j := 0; j < callers; j++ {
				lbl := fmt.Sprintf("skip%d_%d", i, j)
				b.CmpRegImm(x86.R12, int32(j))
				b.Jcc(x86.CondE, lbl)
				b.MovRegImm32(x86.RDI, uint32(i*callers+j))
				b.CallLabel(fmt.Sprintf("wrapper%d", i))
				b.Label(lbl)
			}
		}
		b.Ret()
		for i := 0; i < n; i++ {
			b.Func(fmt.Sprintf("wrapper%d", i))
			b.MovRegReg(x86.RAX, x86.RDI)
			for k := 0; k < pad; k++ {
				b.Nop()
			}
			b.Syscall()
			b.Ret()
		}
	}, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBudgetErrorShape: a budget verdict keeps the message it always
// had, still matches ErrTimeout, and names its stage and cause.
func TestBudgetErrorShape(t *testing.T) {
	for stage, want := range map[string]string{
		StageWrappers: "wrapper detection: ident: analysis budget exhausted",
		StageIdentify: "identification: ident: analysis budget exhausted",
	} {
		err := error(&BudgetError{Stage: stage, Cause: symex.CauseSteps})
		if err.Error() != want {
			t.Errorf("%s: message %q, want %q", stage, err.Error(), want)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("%s: errors.Is(err, ErrTimeout) = false", stage)
		}
	}
}

// TestIdentifyVerdictAcrossWorkers: the same step-limited program fails
// with the same identification verdict at every worker count.
func TestIdentifyVerdictAcrossWorkers(t *testing.T) {
	g := forkingSites(t, 24)
	full, err := Analyze(g, Config{})
	if err != nil {
		t.Fatalf("unbounded analysis: %v", err)
	}
	if len(full.Syscalls) != 24 {
		t.Fatalf("identified %v, want 24 syscalls", full.Syscalls)
	}
	for _, w := range []int{1, 4, 8} {
		budget := &symex.Budget{MaxSteps: 40, MaxForks: 1 << 20, MaxVisits: 3}
		_, err := Analyze(g, Config{Budget: budget, Workers: w})
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: want a BudgetError, got %v", w, err)
		}
		if be.Stage != StageIdentify || be.Cause != symex.CauseSteps {
			t.Fatalf("workers=%d: verdict %+v, want identification/steps", w, be)
		}
		if err.Error() != "identification: ident: analysis budget exhausted" {
			t.Fatalf("workers=%d: message %q", w, err.Error())
		}
	}
}

// TestIdentifyUnitPanicAcrossWorkers: every identification unit runs
// even after the shared budget trips, so a panic in the last unit is
// the verdict at every worker count — never a budget verdict that a
// scheduling accident let win.
func TestIdentifyUnitPanicAcrossWorkers(t *testing.T) {
	g := forkingSites(t, 24)
	defer faults.Activate(faults.Rule{Point: faults.IdentUnit, Match: "23", Panic: true})()
	for _, w := range []int{1, 8} {
		budget := &symex.Budget{MaxSteps: 40, MaxForks: 1 << 20, MaxVisits: 3}
		_, err := Analyze(g, Config{Budget: budget, Workers: w})
		if _, ok := guard.AsPanic(err); !ok {
			t.Fatalf("workers=%d: want the unit's panic, got %v", w, err)
		}
		if !budget.Exhausted() {
			t.Fatalf("workers=%d: the budget never tripped, so the test proves nothing", w)
		}
	}
}

// TestStageVerdictAcrossWorkers: for every step limit up to the first
// that lets the analysis finish, the verdict at 2, 4 and 8 workers is
// the serial one — the stage whose total crossed the limit, whichever
// run happened to end last. The padded wrappers keep concurrent runs
// overlapping, so a stage verdict taken from the runs alone fails
// here on nearly every repetition.
func TestStageVerdictAcrossWorkers(t *testing.T) {
	g := guardedWrappers(t, 12, 6, 64)
	verdict := func(maxSteps, workers int) string {
		budget := &symex.Budget{MaxSteps: maxSteps, MaxForks: 1 << 20, MaxVisits: 3}
		_, err := Analyze(g, Config{Budget: budget, Workers: workers})
		if err == nil {
			return "decided"
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("MaxSteps %d, workers=%d: %v", maxSteps, workers, err)
		}
		return be.Stage
	}
	const reps = 5
	stages := map[string]bool{}
	for max := 1; ; max++ {
		want := verdict(max, 1)
		stages[want] = true
		for _, w := range []int{2, 4, 8} {
			for rep := 0; rep < reps; rep++ {
				if got := verdict(max, w); got != want {
					t.Fatalf("MaxSteps %d, workers=%d: verdict %q, serial %q", max, w, got, want)
				}
			}
		}
		if want == "decided" {
			break
		}
	}
	if !stages[StageWrappers] || !stages[StageIdentify] {
		t.Fatalf("serial verdicts %v: the sweep must cross both stages", stages)
	}
}
