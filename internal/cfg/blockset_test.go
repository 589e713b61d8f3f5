package cfg

import (
	"math/rand"
	"testing"

	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/x86"
)

// TestBlockSetPropertyEquivalence drives BlockSet and a map reference
// with the same randomized operation stream: add, membership, reset,
// and iterate (via Has over the dense order).
func TestBlockSetPropertyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		// Start some sets at zero capacity to exercise growth.
		var s *BlockSet
		if rng.Intn(2) == 0 {
			s = NewBlockSet(n)
		} else {
			s = &BlockSet{}
		}
		ref := make(map[BlockID]bool, n)

		for op := 0; op < 400; op++ {
			id := BlockID(rng.Intn(n))
			switch rng.Intn(4) {
			case 0, 1:
				added := s.Add(id)
				if added == ref[id] {
					t.Fatalf("seed %d: Add(%d) first-insert = %v, ref member = %v",
						seed, id, added, ref[id])
				}
				ref[id] = true
			case 2:
				if s.Has(id) != ref[id] {
					t.Fatalf("seed %d: Has(%d) = %v, ref %v", seed, id, s.Has(id), ref[id])
				}
			case 3:
				if rng.Intn(20) == 0 {
					s.Reset()
					ref = make(map[BlockID]bool, n)
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("seed %d: Len %d, ref %d", seed, s.Len(), len(ref))
			}
		}
		// Full iterate agreement in dense order.
		for id := BlockID(0); int(id) < n; id++ {
			if s.Has(id) != ref[id] {
				t.Fatalf("seed %d: final Has(%d) = %v, ref %v", seed, id, s.Has(id), ref[id])
			}
		}
	}
}

// TestBlockSetNilIsEmpty: a nil set answers membership (the symbolic
// executor's allowed-set contract).
func TestBlockSetNilIsEmpty(t *testing.T) {
	var s *BlockSet
	if s.Has(3) {
		t.Fatal("nil set must contain nothing")
	}
	if s.Len() != 0 {
		t.Fatal("nil set must be empty")
	}
}

// TestReachableSetMatchesReachable: the bitset reachability agrees
// with the reachable set a plain map-based walk over Succs finds, on a
// recovered diamond with a call and an unreachable tail.
func TestReachableSetMatchesReachable(t *testing.T) {
	bin, syms := assemble(t, elff.KindStatic, func(b *asm.Builder) {
		b.Func("_start")
		b.CmpRegImm(x86.RCX, 0)
		b.Jcc(x86.CondNE, "right")
		b.Nop()
		b.JmpLabel("join")
		b.Label("right")
		b.Nop()
		b.Label("join")
		b.CallLabel("callee")
		b.Ret()
		b.Func("callee")
		b.Ret()
		b.Func("unused")
		b.Ret()
	})
	g, err := Recover(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[BlockID]bool)
	start, _ := g.BlockAt(bin.Entry)
	stack := []BlockID{start.ID}
	want[start.ID] = true
	for len(stack) > 0 {
		b := g.Block(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, e := range g.Succs(b) {
			if !want[e.To] {
				want[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	if unused, _ := g.BlockAt(syms["unused"]); unused == nil || want[unused.ID] {
		t.Fatal("the unused tail must be a block and unreachable")
	}
	if len(want) < 5 {
		t.Fatalf("diamond plus callee should reach at least 5 blocks, got %d", len(want))
	}
	got := g.ReachableSet(bin.Entry)
	if got.Len() != len(want) {
		t.Fatalf("Len %d, want %d", got.Len(), len(want))
	}
	for _, b := range g.Blocks() {
		if got.Has(b.ID) != want[b.ID] {
			t.Fatalf("block %d: bitset %v, map %v", b.ID, got.Has(b.ID), want[b.ID])
		}
	}
}
