package linux

import "math/bits"

// SyscallSetBits is the size of a SyscallBitset. The x86-64 Linux table
// tops out at MaxSyscall (334), so 512 bits — eight machine words —
// cover every real number with headroom; resolved values at or above
// this bound are addresses or artifacts, never syscalls, and the
// identification pass discards them before accumulation.
const SyscallSetBits = 512

const syscallSetWords = SyscallSetBits / 64

// SyscallBitset is a fixed-size set of syscall numbers. It is a value
// type: copying copies the set, the zero value is empty, and no
// operation allocates. The identification hot path accumulates per-site
// and per-binary syscall sets through it instead of map[uint64]bool —
// union is eight ORs and membership one shift — and the batch layers
// (shared interfaces, stitching, phase detection) reuse the same
// representation end to end.
type SyscallBitset [syscallSetWords]uint64

// Add inserts n and reports whether it is representable (n <
// SyscallSetBits). Out-of-range values are ignored: callers filter them
// as artifacts before insertion, so a false return is a programming
// error guard, not an expected path.
func (s *SyscallBitset) Add(n uint64) bool {
	if n >= SyscallSetBits {
		return false
	}
	s[n/64] |= 1 << (n % 64)
	return true
}

// Contains reports whether n is in the set.
func (s *SyscallBitset) Contains(n uint64) bool {
	return n < SyscallSetBits && s[n/64]&(1<<(n%64)) != 0
}

// Union folds t into s.
func (s *SyscallBitset) Union(t *SyscallBitset) {
	for i := range s {
		s[i] |= t[i]
	}
}

// AddAll inserts every in-range value of vs.
func (s *SyscallBitset) AddAll(vs []uint64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Len returns the number of members.
func (s *SyscallBitset) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *SyscallBitset) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Append appends the members in ascending order to dst and returns the
// extended slice — the sorted-slice rendering every report format uses.
func (s *SyscallBitset) Append(dst []uint64) []uint64 {
	for i, w := range s {
		base := uint64(i * 64)
		for w != 0 {
			b := uint64(bits.TrailingZeros64(w))
			dst = append(dst, base+b)
			w &= w - 1
		}
	}
	return dst
}

// Slice returns the members in ascending order (never nil).
func (s *SyscallBitset) Slice() []uint64 {
	return s.Append(make([]uint64, 0, s.Len()))
}

// ValueSet is a set of resolved values: in-range syscall numbers live
// in a SyscallBitset, while the rare out-of-range members — address
// artifacts a backward search can surface before the report drops
// values at or above SyscallSetBits — go to a small sorted side list.
// It exists for the accumulation points whose inputs are *not*
// pre-filtered (per-site value sets, export profiles, phase
// emissions); fully filtered paths use SyscallBitset directly. The zero value is empty; Reset keeps the
// side list's capacity for pooled reuse.
type ValueSet struct {
	bits SyscallBitset
	over []uint64 // members >= SyscallSetBits, ascending
}

// Add inserts v.
func (s *ValueSet) Add(v uint64) {
	if s.bits.Add(v) {
		return
	}
	i, n := 0, len(s.over)
	for i < n && s.over[i] < v {
		i++
	}
	if i < n && s.over[i] == v {
		return
	}
	s.over = append(s.over, 0)
	copy(s.over[i+1:], s.over[i:])
	s.over[i] = v
}

// AddAll inserts every value of vs.
func (s *ValueSet) AddAll(vs []uint64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Union folds t into s.
func (s *ValueSet) Union(t *ValueSet) {
	s.bits.Union(&t.bits)
	for _, v := range t.over {
		s.Add(v)
	}
}

// Contains reports membership.
func (s *ValueSet) Contains(v uint64) bool {
	if v < SyscallSetBits {
		return s.bits.Contains(v)
	}
	for _, x := range s.over {
		if x == v {
			return true
		}
		if x > v {
			break
		}
	}
	return false
}

// Len returns the number of members.
func (s *ValueSet) Len() int { return s.bits.Len() + len(s.over) }

// Empty reports whether the set has no members.
func (s *ValueSet) Empty() bool { return len(s.over) == 0 && s.bits.Empty() }

// Append appends the members in ascending order (bitset members all
// precede the out-of-range ones by construction).
func (s *ValueSet) Append(dst []uint64) []uint64 {
	dst = s.bits.Append(dst)
	return append(dst, s.over...)
}

// Slice returns the members in ascending order (never nil).
func (s *ValueSet) Slice() []uint64 {
	return s.Append(make([]uint64, 0, s.Len()))
}

// Reset empties the set, keeping the overflow capacity.
func (s *ValueSet) Reset() {
	s.bits = SyscallBitset{}
	s.over = s.over[:0]
}
