package cfg

// BlockSet is a dense bitset over a Graph's blocks, indexed by the
// stable integer IDs Recover assigns in address order. It replaces the
// map[*Block]bool sets of the analysis hot paths: membership is one
// shift, insertion never allocates after construction, and a set sized
// for the graph can be reused across searches via Reset. The zero
// value is an empty set that grows on first Add.
type BlockSet struct {
	words []uint64
	n     int
}

// NewBlockSet returns an empty set with capacity for a graph of
// numBlocks blocks.
func NewBlockSet(numBlocks int) *BlockSet {
	return &BlockSet{words: make([]uint64, (numBlocks+63)/64)}
}

// grow ensures the set can hold bit id.
func (s *BlockSet) grow(id BlockID) {
	if w := int(id)/64 + 1; w > len(s.words) {
		words := make([]uint64, w)
		copy(words, s.words)
		s.words = words
	}
}

// Add inserts the block with the given ID and reports whether it was
// absent.
func (s *BlockSet) Add(id BlockID) bool {
	s.grow(id)
	w, bit := id/64, uint64(1)<<(id%64)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}

// Has reports whether the block with the given ID is a member. A nil
// set is empty.
func (s *BlockSet) Has(id BlockID) bool {
	if s == nil {
		return false
	}
	w := int(id / 64)
	return w < len(s.words) && s.words[w]&(1<<(id%64)) != 0
}

// Len returns the number of members.
func (s *BlockSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Reset empties the set, keeping its capacity for reuse.
func (s *BlockSet) Reset() {
	clear(s.words)
	s.n = 0
}

// ResetFor empties the set and sizes it for a graph of numBlocks
// blocks, reusing its capacity. A pooled set recycled from a larger
// graph then clears, on every later Reset, only the words this graph
// can use.
func (s *BlockSet) ResetFor(numBlocks int) {
	w := (numBlocks + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		clear(s.words)
	}
	s.n = 0
}

// ReachableSet returns the set of blocks reachable from the given
// root addresses following all edge kinds. Iteration order is the
// caller's choice — walking Blocks and filtering with Has yields
// address order without sorting.
func (g *Graph) ReachableSet(roots ...uint64) *BlockSet {
	return g.ReachableSetFiltered(nil, roots...)
}

// ReachableSetFiltered is ReachableSet restricted to edges allow
// admits. The graph itself stays frozen — consumers that refine the
// over-approximated indirect fan-out (the call-site resolver) express
// the refinement as an edge filter at traversal time. A nil allow
// admits every edge.
func (g *Graph) ReachableSetFiltered(allow func(Edge) bool, roots ...uint64) *BlockSet {
	seen := NewBlockSet(g.NumBlocks())
	var stack []BlockID
	for _, r := range roots {
		if b, ok := g.BlockAt(r); ok && seen.Add(b.ID) {
			stack = append(stack, b.ID)
		}
	}
	for len(stack) > 0 {
		b := g.Block(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, e := range g.Succs(b) {
			if allow != nil && !allow(e) {
				continue
			}
			if seen.Add(e.To) {
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}
