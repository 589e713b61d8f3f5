package linux

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSet is the map-based reference implementation the bitsets are
// checked against.
type refSet map[uint64]bool

func (r refSet) slice() []uint64 {
	out := make([]uint64, 0, len(r))
	for v := range r {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSyscallBitsetPropertyEquivalence drives SyscallBitset and a map
// reference with the same randomized operation stream and asserts they
// agree on add/union/contains/iterate-sorted at every step.
func TestSyscallBitsetPropertyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var bs SyscallBitset
		ref := refSet{}
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0: // add an in-range value
				v := uint64(rng.Intn(SyscallSetBits))
				bs.Add(v)
				ref[v] = true
			case 1: // union with a random small set
				var other SyscallBitset
				for i, n := 0, rng.Intn(8); i < n; i++ {
					v := uint64(rng.Intn(SyscallSetBits))
					other.Add(v)
					ref[v] = true
				}
				bs.Union(&other)
			case 2: // out-of-range adds are dropped: the reference never sees them
				bs.Add(uint64(SyscallSetBits + rng.Intn(1000)))
			}
			// Membership agrees on a random probe.
			probe := uint64(rng.Intn(SyscallSetBits + 100))
			if bs.Contains(probe) != ref[probe] {
				t.Fatalf("seed %d op %d: Contains(%d) = %v, ref %v",
					seed, op, probe, bs.Contains(probe), ref[probe])
			}
		}
		if bs.Len() != len(ref) {
			t.Fatalf("seed %d: Len %d, ref %d", seed, bs.Len(), len(ref))
		}
		if got, want := bs.Slice(), ref.slice(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: iterate-sorted diverged:\n got %v\nwant %v", seed, got, want)
		}
	}
}
