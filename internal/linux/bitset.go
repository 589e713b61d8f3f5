package linux

import "math/bits"

// SyscallSetBits is the size of a SyscallBitset. The x86-64 Linux table
// tops out at MaxSyscall (334), so 512 bits — eight machine words —
// cover every real number with headroom; resolved values at or above
// this bound are addresses or artifacts, never syscalls.
const SyscallSetBits = 512

const syscallSetWords = SyscallSetBits / 64

// SyscallBitset is a fixed-size set of syscall numbers, and the only
// syscall-set type: the per-site search, the per-binary report, library
// export profiles, stitching and phase detection all accumulate through
// it. It is a value type: copying copies the set, the zero value is
// empty, and no operation allocates. Union is eight ORs and membership
// one shift.
//
// Values at or above SyscallSetBits are dropped on insertion. The
// backward search collects each site's values through a SyscallBitset,
// so such artifacts leave identification once, at the site, and no
// later layer sees them.
type SyscallBitset [syscallSetWords]uint64

// Add inserts n; a value at or above SyscallSetBits is dropped.
func (s *SyscallBitset) Add(n uint64) {
	if n < SyscallSetBits {
		s[n/64] |= 1 << (n % 64)
	}
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

// AddAll inserts every value of vs below SyscallSetBits.
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
