package cfg

import (
	"math/rand"
	"testing"
)

// fakeBlocks builds n standalone blocks with dense IDs, enough to
// exercise BlockSet without recovering a real graph.
func fakeBlocks(n int) []*Block {
	out := make([]*Block, n)
	for i := range out {
		out[i] = &Block{Addr: 0x400000 + uint64(i)*16, ID: i}
	}
	return out
}

// TestBlockSetPropertyEquivalence drives BlockSet and a map reference
// with the same randomized operation stream: add, membership, reset,
// and iterate (via Has over the dense order).
func TestBlockSetPropertyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		blocks := fakeBlocks(n)
		// Start some sets at zero capacity to exercise growth.
		var s *BlockSet
		if rng.Intn(2) == 0 {
			s = NewBlockSet(n)
		} else {
			s = &BlockSet{}
		}
		ref := make(map[*Block]bool, n)

		for op := 0; op < 400; op++ {
			b := blocks[rng.Intn(n)]
			switch rng.Intn(4) {
			case 0, 1:
				added := s.Add(b)
				if added == ref[b] {
					t.Fatalf("seed %d: Add(%d) first-insert = %v, ref member = %v",
						seed, b.ID, added, ref[b])
				}
				ref[b] = true
			case 2:
				if s.Has(b) != ref[b] {
					t.Fatalf("seed %d: Has(%d) = %v, ref %v", seed, b.ID, s.Has(b), ref[b])
				}
			case 3:
				if rng.Intn(20) == 0 {
					s.Reset()
					ref = make(map[*Block]bool, n)
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("seed %d: Len %d, ref %d", seed, s.Len(), len(ref))
			}
		}
		// Full iterate agreement in dense order.
		for _, b := range blocks {
			if s.Has(b) != ref[b] {
				t.Fatalf("seed %d: final Has(%d) = %v, ref %v", seed, b.ID, s.Has(b), ref[b])
			}
		}
	}
}

// TestBlockSetNilIsEmpty: a nil set answers membership (the symbolic
// executor's allowed-set contract).
func TestBlockSetNilIsEmpty(t *testing.T) {
	var s *BlockSet
	if s.Has(&Block{ID: 3}) {
		t.Fatal("nil set must contain nothing")
	}
	if s.Len() != 0 {
		t.Fatal("nil set must be empty")
	}
}

// TestReachableSetMatchesReachable: the bitset reachability agrees with
// the map-based original on a real recovered graph shape — here a
// hand-wired diamond with an unreachable tail.
func TestReachableSetMatchesReachable(t *testing.T) {
	blocks := fakeBlocks(6)
	g := &Graph{sortedBlocks: blocks}
	link := func(kind EdgeKind, from, to *Block) {
		e := Edge{Kind: kind, From: from, To: to}
		from.Succs = append(from.Succs, e)
		to.Preds = append(to.Preds, e)
	}
	// 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4; 5 unreachable.
	link(EdgeJump, blocks[0], blocks[1])
	link(EdgeFall, blocks[0], blocks[2])
	link(EdgeJump, blocks[1], blocks[3])
	link(EdgeJump, blocks[2], blocks[3])
	link(EdgeCall, blocks[3], blocks[4])

	want := g.Reachable(blocks[0].Addr)
	got := g.ReachableSet(blocks[0].Addr)
	if got.Len() != len(want) {
		t.Fatalf("Len %d, want %d", got.Len(), len(want))
	}
	for _, b := range blocks {
		if got.Has(b) != want[b] {
			t.Fatalf("block %d: bitset %v, map %v", b.ID, got.Has(b), want[b])
		}
	}
}
