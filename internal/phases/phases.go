// Package phases implements B-Side's automaton-based phase detection
// (§4.7): the CFG and the per-site syscall sets become a
// non-deterministic finite automaton whose transitions are syscall
// invocations and whose ε-transitions are ordinary edges; powerset
// construction yields a DFA; strongly-connected DFA states merge into
// *phases*, each with an allowed-syscall list; an optional
// back-propagation step makes the phase policies enforceable with
// seccomp's tighten-only semantics.
package phases

import (
	"errors"
	"fmt"
	"sort"

	"bside/internal/cfg"
	"bside/internal/linux"
	"bside/internal/x86"
)

// ErrTooLarge is returned when powerset construction exceeds the state
// bound.
var ErrTooLarge = errors.New("phases: DFA construction exceeded state bound")

// maxDFAStates bounds powerset construction.
const maxDFAStates = 65_536

// Config tunes phase detection.
type Config struct {
	// BackPropagate unions each phase's allowed set with everything
	// allowed in reachable future phases, as required when the runtime
	// filter is seccomp (which can only tighten rules).
	BackPropagate bool
}

// Input couples a recovered CFG with per-block syscall emission sets:
// blocks ending in a syscall instruction map to the identified numbers
// of that site; blocks calling into foreign code may map to the
// imported function's syscall set.
type Input struct {
	Graph *cfg.Graph
	// Emits maps block start addresses to the syscalls whose invocation
	// the block's final instruction may trigger.
	Emits map[uint64][]uint64
	// Start is the automaton's initial block (defaults to the binary
	// entry point).
	Start uint64
}

// Phase is one merged automaton state: a set of program locations with
// a single allowed-syscall list.
type Phase struct {
	ID int
	// Blocks are the CFG block addresses belonging to the phase (one
	// block can belong to several phases, an artifact of
	// determinization the paper calls out in Table 4).
	Blocks []uint64
	// CodeSize sums the member blocks' sizes (Table 4's Size column).
	CodeSize uint64
	// Allowed is the phase's allow-list: every syscall labelling a
	// transition out of (or within) the phase.
	Allowed []uint64
	// Transitions maps a destination phase to the sorted syscalls that
	// trigger the switch; self-transitions appear under the phase's own
	// ID.
	Transitions map[int][]uint64
}

// Automaton is the phase-detection result.
type Automaton struct {
	Phases []*Phase
	// Start is the ID of the initial phase.
	Start int
	// Alphabet is the sorted set of syscalls appearing on transitions.
	Alphabet []uint64
	// DFAStates counts the pre-merge DFA states (diagnostics).
	DFAStates int
}

// Accepts replays a dynamic syscall trace against the automaton: this
// is the runtime-enforcement simulation — a sound automaton accepts
// every trace the program can actually produce. Phase merging can make
// the automaton non-deterministic (a symbol may label both a self-loop
// and an exit), so acceptance tracks the set of possible phases. It
// returns the index of the first rejected syscall, or -1 when the whole
// trace is accepted.
func (a *Automaton) Accepts(trace []uint64) int {
	cur := map[int]bool{a.Start: true}
	for i, nr := range trace {
		next := make(map[int]bool)
		for id := range cur {
			for dst, syms := range a.Phases[id].Transitions {
				for _, s := range syms {
					if s == nr {
						next[dst] = true
						break
					}
				}
			}
		}
		if len(next) == 0 {
			return i
		}
		cur = next
	}
	return -1
}

// Detect builds the phase automaton.
func Detect(in Input, conf Config) (*Automaton, error) {
	g := in.Graph
	start := in.Start
	if start == 0 {
		start = g.Bin.Entry
	}
	startBlk, ok := g.BlockAt(start)
	if !ok {
		return nil, fmt.Errorf("phases: no block at start %#x", start)
	}

	// Restrict to reachable blocks and assign dense indices (-1 for
	// the unreachable ones).
	reach := g.ReachableSet(start)
	blocks := make([]*cfg.Block, 0, reach.Len())
	idx := make([]int, g.NumBlocks())
	all := g.Blocks()
	for i := range all {
		idx[i] = -1
		if reach.Has(all[i].ID) {
			idx[i] = len(blocks)
			blocks = append(blocks, &all[i])
		}
	}

	// NFA: per block, ε-successors or labelled successors.
	type nfa struct {
		eps    []int
		labels []uint64 // emission set; empty means ε-only
		onSym  []int    // successors taken on any label
	}
	nodes := make([]nfa, len(blocks))
	var alphaSet linux.SyscallBitset
	for i, b := range blocks {
		emits := in.Emits[b.Addr]
		for _, e := range g.Succs(b) {
			j := idx[e.To]
			if j < 0 {
				continue
			}
			if len(emits) > 0 {
				nodes[i].onSym = append(nodes[i].onSym, j)
			} else {
				nodes[i].eps = append(nodes[i].eps, j)
			}
		}
		if len(emits) > 0 {
			nodes[i].labels = append([]uint64(nil), emits...)
			alphaSet.AddAll(emits)
		}
	}

	// Return ε-edges: the base CFG models returns through call-fall
	// edges only, which is what identification wants, but the automaton
	// must be able to continue after a syscall that fires *inside* a
	// callee. Restrict the edges to functions that actually contain
	// emitting blocks — adding them for every shared helper would glue
	// all its callers into one phase. (Wrapper functions emit at their
	// call sites, so they need no return edges; continuation flows
	// through the caller's call-fall edge.)
	emittingFns := make(map[uint64]bool)
	for addr, set := range in.Emits {
		if len(set) == 0 {
			continue
		}
		if blk, ok := g.BlockAt(addr); ok && !g.EndsInSyscall(blk) {
			continue // call-site emission: handled by call-fall edges
		}
		if fn, ok := g.FuncContaining(addr); ok {
			emittingFns[fn.Entry] = true
		}
	}
	for i, b := range blocks {
		if g.Last(b).Op != x86.OpRet {
			continue
		}
		fn, ok := g.FuncContaining(b.Addr)
		if !ok || !emittingFns[fn.Entry] {
			continue
		}
		entryBlk, ok := g.BlockAt(fn.Entry)
		if !ok {
			continue
		}
		for _, e := range g.Preds(entryBlk) {
			if e.Kind != cfg.EdgeCall && e.Kind != cfg.EdgeIndirectCall {
				continue
			}
			for _, ce := range g.Succs(g.Block(e.From)) {
				if ce.Kind != cfg.EdgeCallFall {
					continue
				}
				if j := idx[ce.To]; j >= 0 {
					nodes[i].eps = append(nodes[i].eps, j)
				}
			}
		}
	}
	alphabet := alphaSet.Slice()

	// ε-closure over bitsets.
	words := (len(blocks) + 63) / 64
	closure := func(set []uint64) {
		var stack []int
		for i := range blocks {
			if set[i/64]&(1<<(i%64)) != 0 {
				stack = append(stack, i)
			}
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, j := range nodes[n].eps {
				if set[j/64]&(1<<(j%64)) == 0 {
					set[j/64] |= 1 << (j % 64)
					stack = append(stack, j)
				}
			}
		}
	}
	key := func(set []uint64) string {
		buf := make([]byte, 8*len(set))
		for i, w := range set {
			for b := 0; b < 8; b++ {
				buf[8*i+b] = byte(w >> (8 * b))
			}
		}
		return string(buf)
	}

	// Powerset construction.
	type dfaState struct {
		set   []uint64
		trans map[uint64]int
	}
	var dfa []*dfaState
	index := make(map[string]int)
	newState := func(set []uint64) int {
		k := key(set)
		if id, ok := index[k]; ok {
			return id
		}
		id := len(dfa)
		index[k] = id
		dfa = append(dfa, &dfaState{set: set, trans: make(map[uint64]int)})
		return id
	}
	init := make([]uint64, words)
	si := idx[startBlk.ID]
	init[si/64] |= 1 << (si % 64)
	closure(init)
	work := []int{newState(init)}

	for len(work) > 0 {
		if len(dfa) > maxDFAStates {
			return nil, ErrTooLarge
		}
		id := work[len(work)-1]
		work = work[:len(work)-1]
		st := dfa[id]
		// Group member-NFA transitions by symbol.
		bySym := make(map[uint64][]uint64) // symbol -> target bitset
		for i := range blocks {
			if st.set[i/64]&(1<<(i%64)) == 0 || len(nodes[i].labels) == 0 {
				continue
			}
			for _, s := range nodes[i].labels {
				tgt := bySym[s]
				if tgt == nil {
					tgt = make([]uint64, words)
					bySym[s] = tgt
				}
				for _, j := range nodes[i].onSym {
					tgt[j/64] |= 1 << (j % 64)
				}
			}
		}
		syms := make([]uint64, 0, len(bySym))
		for s := range bySym {
			syms = append(syms, s)
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
		for _, s := range syms {
			tgt := bySym[s]
			closure(tgt)
			k := key(tgt)
			prev, existed := index[k]
			if !existed {
				prev = newState(tgt)
				work = append(work, prev)
			}
			st.trans[s] = prev
		}
	}

	// Merge strongly-connected DFA states into phases (Tarjan). The
	// successor enumeration is sorted so phase numbering is
	// deterministic across runs.
	comp := sccOf(len(dfa), func(i int, f func(int)) {
		syms := make([]uint64, 0, len(dfa[i].trans))
		for s := range dfa[i].trans {
			syms = append(syms, s)
		}
		sort.Slice(syms, func(a, b int) bool { return syms[a] < syms[b] })
		for _, s := range syms {
			f(dfa[i].trans[s])
		}
	})
	numPhases := 0
	for _, c := range comp {
		if c+1 > numPhases {
			numPhases = c + 1
		}
	}

	out := &Automaton{Start: comp[0], DFAStates: len(dfa), Alphabet: alphabet}
	out.Phases = make([]*Phase, numPhases)
	for i := range out.Phases {
		out.Phases[i] = &Phase{ID: i, Transitions: make(map[int][]uint64)}
	}
	blockSets := make([]map[uint64]bool, numPhases)
	transSets := make([]map[int]*linux.SyscallBitset, numPhases)
	for i := range blockSets {
		blockSets[i] = make(map[uint64]bool)
		transSets[i] = make(map[int]*linux.SyscallBitset)
	}
	for id, st := range dfa {
		p := comp[id]
		for i := range blocks {
			if st.set[i/64]&(1<<(i%64)) != 0 {
				blockSets[p][blocks[i].Addr] = true
			}
		}
		for s, to := range st.trans {
			dst := comp[to]
			set := transSets[p][dst]
			if set == nil {
				set = new(linux.SyscallBitset)
				transSets[p][dst] = set
			}
			set.Add(s)
		}
	}
	for p, ph := range out.Phases {
		for addr := range blockSets[p] {
			ph.Blocks = append(ph.Blocks, addr)
			if blk, ok := g.BlockAt(addr); ok {
				ph.CodeSize += g.End(blk) - blk.Addr
			}
		}
		sort.Slice(ph.Blocks, func(i, j int) bool { return ph.Blocks[i] < ph.Blocks[j] })
		var allowed linux.SyscallBitset
		for dst, set := range transSets[p] {
			allowed.Union(set)
			ph.Transitions[dst] = set.Slice()
		}
		ph.Allowed = allowed.Slice()
	}

	if conf.BackPropagate {
		backPropagate(out)
	}
	return out, nil
}

// backPropagate unions every phase's allow list with the allow lists of
// all phases reachable from it, in reverse topological order of the
// phase DAG (SCC condensation is acyclic by construction).
func backPropagate(a *Automaton) {
	n := len(a.Phases)
	order := topoOrder(n, func(i int, f func(int)) {
		for dst := range a.Phases[i].Transitions {
			if dst != i {
				f(dst)
			}
		}
	})
	allowed := make([]linux.SyscallBitset, n)
	for i, ph := range a.Phases {
		allowed[i].AddAll(ph.Allowed)
	}
	// Visit in reverse topological order: successors first.
	for _, i := range order {
		for dst := range a.Phases[i].Transitions {
			if dst == i {
				continue
			}
			allowed[i].Union(&allowed[dst])
		}
	}
	for i, ph := range a.Phases {
		ph.Allowed = allowed[i].Append(ph.Allowed[:0])
	}
}

// topoOrder returns node indices such that successors of a node appear
// before it (post-order of a DFS over the DAG).
func topoOrder(n int, succs func(int, func(int))) []int {
	visited := make([]bool, n)
	var order []int
	var visit func(int)
	visit = func(i int) {
		if visited[i] {
			return
		}
		visited[i] = true
		succs(i, visit)
		order = append(order, i)
	}
	for i := 0; i < n; i++ {
		visit(i)
	}
	return order
}

// sccOf computes strongly connected components (iterative Tarjan) and
// returns the component index per node; components are numbered so the
// condensation can be traversed safely in any order.
func sccOf(n int, succs func(int, func(int))) []int {
	const undef = -1
	indexOf := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range indexOf {
		indexOf[i] = undef
		comp[i] = undef
	}
	var stack []int
	counter := 0
	numComp := 0

	type frame struct {
		node  int
		succs []int
		next  int
	}
	for root := 0; root < n; root++ {
		if indexOf[root] != undef {
			continue
		}
		var frames []frame
		push := func(v int) {
			indexOf[v] = counter
			low[v] = counter
			counter++
			stack = append(stack, v)
			onStack[v] = true
			var ss []int
			succs(v, func(w int) { ss = append(ss, w) })
			frames = append(frames, frame{node: v, succs: ss})
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(f.succs) {
				w := f.succs[f.next]
				f.next++
				if indexOf[w] == undef {
					push(w)
				} else if onStack[w] {
					if indexOf[w] < low[f.node] {
						low[f.node] = indexOf[w]
					}
				}
				continue
			}
			// Pop.
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.node] {
					low[parent.node] = low[v]
				}
			}
			if low[v] == indexOf[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = numComp
					if w == v {
						break
					}
				}
				numComp++
			}
		}
	}
	return comp
}
