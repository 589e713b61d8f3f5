package symex

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/x86"
)

// TestBudgetCause: each limit records its own cause when it trips, a
// budget that holds reports none, and the first cause sticks.
func TestBudgetCause(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	cases := []struct {
		name string
		trip func(b *Budget)
		want Cause
	}{
		{"holds", func(b *Budget) {}, CauseNone},
		{"steps", func(b *Budget) { b.AddSteps(b.MaxSteps) }, CauseSteps},
		{"forks", func(b *Budget) {
			for range b.MaxForks {
				b.AddFork()
			}
		}, CauseForks},
		{"deadline", func(b *Budget) { b.Deadline = time.Now().Add(-time.Second) }, CauseDeadline},
		{"cancel", func(b *Budget) { b.Cancel = closed }, CauseCancel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &Budget{MaxSteps: 100, MaxForks: 10, MaxVisits: 3}
			tc.trip(b)
			if got := b.Exhausted(); got != (tc.want != CauseNone) {
				t.Fatalf("Exhausted() = %v", got)
			}
			if got := b.Cause(); got != tc.want {
				t.Fatalf("Cause() = %v, want %v", got, tc.want)
			}
			if c := b.Clone().Cause(); c != CauseNone {
				t.Fatalf("a clone inherited cause %v", c)
			}
		})
	}

	// A later limit never overwrites the first cause.
	b := &Budget{MaxSteps: 100, MaxForks: 10, MaxVisits: 3}
	b.Deadline = time.Now().Add(-time.Second)
	b.Exhausted()
	b.AddSteps(100)
	b.Exhausted()
	if got := b.Cause(); got != CauseDeadline {
		t.Fatalf("cause after a later steps trip = %v, want deadline", got)
	}
}

// TestBudgetExhaustedAllocFree: the check allocates nothing, before or
// after the trip.
func TestBudgetExhaustedAllocFree(t *testing.T) {
	b := NewBudget()
	b.Deadline = time.Now().Add(time.Hour)
	b.Cancel = make(chan struct{})
	if n := testing.AllocsPerRun(100, func() { b.Exhausted() }); n != 0 {
		t.Fatalf("untripped Exhausted allocates %v", n)
	}
	b.AddSteps(b.MaxSteps)
	if n := testing.AllocsPerRun(100, func() { b.Exhausted() }); n != 0 {
		t.Fatalf("tripped Exhausted allocates %v", n)
	}
}

// TestBudgetCauseRace: many goroutines trip one budget at once through
// different limits. Exactly one cause is recorded, and every goroutine
// sees that same cause once its own check returned.
func TestBudgetCauseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := &Budget{MaxSteps: 1000, MaxForks: 1000, MaxVisits: 3}
		const n = 32
		seen := make([]Cause, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				if i%2 == 0 {
					b.AddSteps(b.MaxSteps)
				} else {
					for range b.MaxForks {
						b.AddFork()
					}
				}
				if !b.Exhausted() {
					t.Error("budget past its limit not exhausted")
				}
				seen[i] = b.Cause()
			}(i)
		}
		close(start)
		wg.Wait()
		final := b.Cause()
		if !final.Counted() {
			t.Fatalf("round %d: cause %v, want steps or forks", round, final)
		}
		for i, c := range seen {
			if c != final {
				t.Fatalf("round %d: goroutine %d saw cause %v, final %v", round, i, c, final)
			}
		}
	}
}

// chainGraph builds a straight chain of n three-instruction blocks and
// returns it with its first block.
func chainGraph(t *testing.T, n int) (*cfg.Graph, *cfg.Block) {
	t.Helper()
	g, syms := recoverGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		for i := 0; i < n-1; i++ {
			b.IncReg(x86.RCX)
			b.IncReg(x86.RCX)
			b.JmpLabel(fmt.Sprintf("b%d", i+1))
			b.Label(fmt.Sprintf("b%d", i+1))
		}
		b.IncReg(x86.RCX)
		b.IncReg(x86.RCX)
		b.Ret()
	})
	start, _ := g.BlockAt(syms["_start"])
	return g, start
}

// TestRunBudgetAccounting: a run counts its steps locally, yet with one
// worker it stops at exactly the block where per-block accounting
// stops it — also past a flush — and every step it executed is on the
// shared counter once it returns, so a later run sharing the budget
// starts exhausted.
func TestRunBudgetAccounting(t *testing.T) {
	const blocks = 400 // 1,200 steps: more than one flush
	g, start := chainGraph(t, blocks)
	for _, tc := range []struct {
		maxSteps, blocks int
		hit              bool
	}{
		{7, 3, true},      // checks at 0, 3, 6 pass; 9 trips
		{1100, 367, true}, // 366 blocks are 1,098 steps; 367 are 1,101
		{3 * blocks, blocks, false},
		{1 << 20, blocks, false},
	} {
		b := &Budget{MaxSteps: tc.maxSteps, MaxForks: 10, MaxVisits: 3}
		m := NewMachine(g, b)
		res := m.RunToSite(start, m.NewState(), allBlocks(g), nil, nil)
		if res.BlocksExecuted != tc.blocks || res.HitBudget != tc.hit {
			t.Errorf("MaxSteps %d: %d blocks, hit %v; want %d, %v",
				tc.maxSteps, res.BlocksExecuted, res.HitBudget, tc.blocks, tc.hit)
		}
		if got := int(b.steps.Load()); got != 3*tc.blocks {
			t.Errorf("MaxSteps %d: shared counter %d after the run, want %d", tc.maxSteps, got, 3*tc.blocks)
		}
		if !tc.hit {
			continue
		}
		again := m.RunToSite(start, m.NewState(), allBlocks(g), nil, nil)
		if again.BlocksExecuted != 0 || !again.HitBudget {
			t.Errorf("MaxSteps %d: a second run executed %d blocks, hit %v",
				tc.maxSteps, again.BlocksExecuted, again.HitBudget)
		}
	}
}
