package symex

import (
	"sync"
	"sync/atomic"
	"time"

	"bside/internal/cfg"
	"bside/internal/x86"
)

// Budget bounds the work one symbolic search may perform. A search that
// exhausts its budget is reported as inconclusive — the analysis-level
// analog of the paper's timeouts.
//
// A Budget is safe for concurrent use: one budget may be shared by many
// machines running on different goroutines (the intra-binary worker
// pool), with the step and fork counters accumulated atomically. The
// Max* limits and Deadline are configuration — set them before the
// first search and leave them alone afterwards.
//
// A run does not add each block's steps to the shared counter as it
// goes. It keeps a local count, checks the limit against the shared
// count plus its own, and adds its count in chunks of flushSteps and
// when it returns. With one worker the budget therefore trips at
// exactly the block where per-block accounting would trip it. With
// several, a run may see another run's steps up to one chunk late, so
// it can execute a few more blocks before it stops. The verdict stays
// exact. Every run has added all its steps by the time it returns, so
// the check each stage makes after its units finish reads the true
// total, and that total reaches MaxSteps exactly when the runs'
// complete step counts would: a run only stops early once it has seen
// the limit reached.
type Budget struct {
	MaxSteps  int // instructions executed across all paths
	MaxForks  int // path splits
	MaxVisits int // times one path may re-enter the same block

	// Deadline, when non-zero, bounds the wall clock: a search running
	// past it is exhausted regardless of remaining steps, matching the
	// paper's per-binary analysis timeouts.
	Deadline time.Time

	// Cancel, when non-nil, cancels the budget externally: once the
	// channel is closed, Exhausted reports true regardless of the
	// remaining limits. This is the hook that maps a request context's
	// cancellation onto the symbolic-execution budget — an abandoned
	// analysis stops at the next budget check instead of burning CPU to
	// completion.
	Cancel <-chan struct{}

	steps atomic.Int64
	forks atomic.Int64
	cause atomic.Uint32 // first Cause that tripped; CauseNone until then
}

// Cause names the limit that exhausted a budget.
type Cause uint32

// Budget exhaustion causes.
const (
	// CauseNone: the budget has not tripped.
	CauseNone Cause = iota
	// CauseSteps: MaxSteps executed instructions.
	CauseSteps
	// CauseForks: MaxForks path splits.
	CauseForks
	// CauseDeadline: the wall-clock Deadline passed.
	CauseDeadline
	// CauseCancel: the Cancel channel was closed.
	CauseCancel
)

// Counted reports whether the cause is a count limit (steps or forks).
// Count consumption is a pure function of the analyzed image and the
// configuration, so a count-limited verdict recurs on every rerun; a
// deadline or a cancellation depends on the wall clock and the caller.
func (c Cause) Counted() bool { return c == CauseSteps || c == CauseForks }

// NewBudget returns a budget with defaults suitable for whole-binary
// analysis.
func NewBudget() *Budget {
	return &Budget{MaxSteps: 500_000, MaxForks: 8_192, MaxVisits: 3}
}

// Clone returns a budget with the same limits and deadline but fresh
// counters — one analysis unit's consumption must not drain another's.
func (b *Budget) Clone() *Budget {
	return &Budget{
		MaxSteps:  b.MaxSteps,
		MaxForks:  b.MaxForks,
		MaxVisits: b.MaxVisits,
		Deadline:  b.Deadline,
		Cancel:    b.Cancel,
	}
}

// AddSteps accrues n executed instructions.
func (b *Budget) AddSteps(n int) { b.steps.Add(int64(n)) }

// AddFork accrues one path split.
func (b *Budget) AddFork() { b.forks.Add(1) }

// AddForks accrues n path splits at once.
func (b *Budget) AddForks(n int) { b.forks.Add(int64(n)) }

// Exhausted reports whether any limit was hit: steps, forks, the
// wall-clock deadline, or an external cancellation. The first limit
// seen tripping is recorded for Cause.
func (b *Budget) Exhausted() bool { return b.exhausted(0) }

// exhausted is Exhausted for a run holding pending steps it has not
// added yet.
func (b *Budget) exhausted(pending int) bool {
	if int(b.steps.Load())+pending >= b.MaxSteps {
		return b.trip(CauseSteps)
	}
	if int(b.forks.Load()) >= b.MaxForks {
		return b.trip(CauseForks)
	}
	if b.Cancel != nil {
		select {
		case <-b.Cancel:
			return b.trip(CauseCancel)
		default:
		}
	}
	if !b.Deadline.IsZero() && time.Now().After(b.Deadline) {
		return b.trip(CauseDeadline)
	}
	return false
}

// trip records c unless an earlier cause already is, and reports true.
func (b *Budget) trip(c Cause) bool {
	b.cause.CompareAndSwap(uint32(CauseNone), uint32(c))
	return true
}

// Cause returns the first limit Exhausted saw tripping, or CauseNone
// while the budget holds.
func (b *Budget) Cause() Cause { return Cause(b.cause.Load()) }

// Result is the outcome of a directed run.
type Result struct {
	// SiteStates holds one state per path that reached the site,
	// captured immediately before the site's final instruction. Hand the
	// result back via Machine.Release once the states have been read:
	// it recycles the states and the slice itself.
	SiteStates []*State
	// HitBudget is set when the search stopped early.
	HitBudget bool
	// BlocksExecuted counts block executions (Table 3's "BBs explored").
	BlocksExecuted int

	// sites is the sitesPool item SiteStates was built in; nil until
	// the first path reaches the site.
	sites *[]*State
}

// Machine executes symbolic paths over a recovered CFG. One machine
// may run searches from many goroutines concurrently. Its scratch
// (path states, per-run stacks and visit counters, site-state slices)
// comes from the package-level statePool, runPool and sitesPool, not
// from pools of its own: the runtime keeps a used pool reachable until
// the second GC after its last use, and a pool inside the Machine
// would keep the Machine and its graph alive with it. Pooled items
// hold no graph pointers, so they recycle across binaries too.
type Machine struct {
	g           *cfg.Graph
	budget      *Budget
	importSlots map[uint64]bool
}

// No pooled slice points at a state in any slot up to its capacity (a
// task names its block by ID). A slice enters its pool only through
// the code that empties it (Release, the end of RunToSite), and that
// code clears only the slots its run used: the slots past the length
// were cleared by the runs that wrote them, and a grown slice starts
// clear. Clearing to capacity would make every run pay for the largest.
var (
	statePool sync.Pool // *State, scrubbed
	runPool   sync.Pool // *runScratch, holding no state pointers
	sitesPool sync.Pool // *[]*State, empty
)

// runScratch is the per-RunToSite working set: the task stack, its
// parallel visit-buffer stack, the per-block successor staging slice,
// and the free visit buffers. Pooled so a directed run allocates
// nothing but its results.
type runScratch struct {
	stack  []task
	visits [][]uint16
	succs  []task
	free   [][]uint16
}

// visitBuf pops a free per-path visit buffer resliced to n blocks, or
// allocates one. Its contents are stale.
func (sc *runScratch) visitBuf(n int) []uint16 {
	if k := len(sc.free); k > 0 {
		v := sc.free[k-1]
		sc.free[k-1] = nil
		sc.free = sc.free[:k-1]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]uint16, n)
}

// newVisits returns a zeroed visit buffer (indexed by block ID).
func (sc *runScratch) newVisits(n int) []uint16 {
	v := sc.visitBuf(n)
	clear(v)
	return v
}

func (sc *runScratch) cloneVisits(v []uint16) []uint16 {
	c := sc.visitBuf(len(v))
	copy(c, v)
	return c
}

func (sc *runScratch) freeVisits(v []uint16) { sc.free = append(sc.free, v) }

// NewMachine builds a machine over g sharing the given budget.
func NewMachine(g *cfg.Graph, budget *Budget) *Machine {
	if budget == nil {
		budget = NewBudget()
	}
	slots := make(map[uint64]bool, len(g.Bin.Imports))
	for _, im := range g.Bin.Imports {
		slots[im.SlotAddr] = true
	}
	return &Machine{g: g, budget: budget, importSlots: slots}
}

// NewState returns an empty path state drawn from the state pool;
// pair with Release (directly, or via the Result that carried it).
func (m *Machine) NewState() *State {
	if s, ok := statePool.Get().(*State); ok {
		return s
	}
	return NewState()
}

// NewEntryState returns a pooled function-entry state (NewEntryState's
// pooled twin).
func (m *Machine) NewEntryState(stackParams int) *State {
	s := m.NewState()
	s.initEntry(stackParams)
	return s
}

// freeState scrubs s and returns it to the pool.
func (m *Machine) freeState(s *State) {
	s.reset()
	statePool.Put(s)
}

// cloneState deep-copies s into a state drawn from the pool.
func (m *Machine) cloneState(s *State) *State {
	c := m.NewState()
	c.Regs = s.Regs
	for k, v := range s.Stack {
		c.Stack[k] = v
	}
	for k, v := range s.Overlay {
		c.Overlay[k] = v
	}
	return c
}

// Release returns a run's surviving states, and the slice holding
// them, to their pools. Call it once the site states have been read;
// the Values read from them (register contents, parameter taints) stay
// valid, only the states themselves are recycled. The slice's used
// slots are cleared before it is pooled, so no pooled item points at a
// state.
func (m *Machine) Release(res *Result) {
	for _, st := range res.SiteStates {
		m.freeState(st)
	}
	if res.sites != nil {
		clear(res.SiteStates)
		*res.sites = res.SiteStates[:0]
		sitesPool.Put(res.sites)
		res.sites = nil
	}
	res.SiteStates = nil
}

// flushSteps is how many steps a run counts locally before it adds
// them to the shared budget.
const flushSteps = 1024

type task struct {
	blk cfg.BlockID
	st  *State
}

// RunToSite performs directed forward symbolic execution from start
// toward site. Only blocks in allowed (plus the site itself) may be
// entered; calls to functions outside the set are skipped with an
// ABI-faithful register havoc. The returned states are snapshots taken
// just before the site block's last instruction (the syscall, or the
// call into a wrapper).
//
// Each path owns a dense visit-count buffer; buffers are cloned only
// when a path forks and recycled when it dies, so the per-block cost
// carries no map traffic at all.
func (m *Machine) RunToSite(start *cfg.Block, init *State, allowed *cfg.BlockSet, site *cfg.Block) Result {
	var res Result
	g := m.g
	inSet := func(id cfg.BlockID) bool {
		return id >= 0 && (allowed.Has(id) || g.Block(id) == site)
	}
	maxVisits := uint16(m.budget.MaxVisits)

	sc, _ := runPool.Get().(*runScratch)
	if sc == nil {
		sc = &runScratch{}
	}
	stack := append(sc.stack[:0], task{blk: start.ID, st: init})
	visitStack := append(sc.visits[:0], sc.newVisits(m.g.NumBlocks()))
	pending := 0 // steps executed but not yet added to the budget
	for len(stack) > 0 {
		if m.budget.exhausted(pending) {
			res.HitBudget = true
			for i, t := range stack {
				m.freeState(t.st)
				sc.freeVisits(visitStack[i])
			}
			clear(stack)
			clear(visitStack)
			break
		}
		// Pop, clearing the slot: a pooled stack must not keep this
		// run's states reachable.
		t := stack[len(stack)-1]
		stack[len(stack)-1] = task{}
		stack = stack[:len(stack)-1]
		visits := visitStack[len(visitStack)-1]
		visitStack[len(visitStack)-1] = nil
		visitStack = visitStack[:len(visitStack)-1]

		if visits[t.blk] >= maxVisits {
			m.freeState(t.st)
			sc.freeVisits(visits)
			continue
		}
		visits[t.blk]++
		res.BlocksExecuted++

		st := t.st
		blk := g.Block(t.blk)
		insns := g.Insns(blk)
		n := len(insns)

		// Execute the block body (everything but the last instruction),
		// charging the whole block to the local count; the shared
		// budget sees it at the next flush.
		for _, in := range insns[:n-1] {
			m.step(st, in)
		}
		if pending += n; pending >= flushSteps {
			m.budget.AddSteps(pending)
			pending = 0
		}

		if blk == site {
			if res.sites == nil {
				res.sites, _ = sitesPool.Get().(*[]*State)
				if res.sites == nil {
					res.sites = new([]*State)
				}
				res.SiteStates = *res.sites
			}
			res.SiteStates = append(res.SiteStates, st)
			sc.freeVisits(visits)
			continue
		}

		// Dispatch on the final instruction.
		succs := sc.succs[:0]
		push := func(b cfg.BlockID, s *State) {
			succs = append(succs, task{blk: b, st: s})
		}
		edges := g.Succs(blk)
		last := insns[n-1]
		switch last.Op {
		case x86.OpJmp:
			if to := succOf(edges, cfg.EdgeJump); inSet(to) {
				push(to, st)
			}

		case x86.OpJcc:
			to := succOf(edges, cfg.EdgeJump)
			fall := succOf(edges, cfg.EdgeFall)
			if inSet(to) && inSet(fall) {
				m.budget.AddFork()
				push(fall, m.cloneState(st))
				push(to, st)
			} else if inSet(to) {
				push(to, st)
			} else if inSet(fall) {
				push(fall, st)
			}

		case x86.OpCall:
			callee := succOf(edges, cfg.EdgeCall)
			fall := succOf(edges, cfg.EdgeCallFall)
			if inSet(callee) {
				m.pushRet(st, last.Next())
				push(callee, st)
			} else if inSet(fall) {
				st.havoc(x86.CallerSaved)
				push(fall, st)
			}

		case x86.OpCallInd:
			fall := succOf(edges, cfg.EdgeCallFall)
			if g.ImportCall(blk) != "" {
				if inSet(fall) {
					st.havoc(x86.CallerSaved)
					push(fall, st)
				}
				break
			}
			tv := m.evalOperand(st, last, last.Dst, last.OpSize)
			if k, ok := tv.IsConst(); ok {
				if to := m.blockAt(k); inSet(to) {
					m.pushRet(st, last.Next())
					push(to, st)
					break
				}
				if inSet(fall) {
					st.havoc(x86.CallerSaved)
					push(fall, st)
				}
				break
			}
			// Symbolic target: fork into each allowed heuristic target
			// and also the skip-the-call continuation.
			for _, e := range edges {
				if e.Kind != cfg.EdgeIndirectCall || !inSet(e.To) {
					continue
				}
				s2 := m.cloneState(st)
				m.pushRet(s2, last.Next())
				m.budget.AddFork()
				push(e.To, s2)
			}
			if inSet(fall) {
				st.havoc(x86.CallerSaved)
				push(fall, st)
			}

		case x86.OpJmpInd:
			if g.ImportCall(blk) != "" {
				// Import stub: model call-and-return through the
				// external function.
				st.havoc(x86.CallerSaved)
				if to := m.popRetTarget(st); inSet(to) {
					push(to, st)
				}
				break
			}
			tv := m.evalOperand(st, last, last.Dst, last.OpSize)
			if k, ok := tv.IsConst(); ok {
				if to := m.blockAt(k); inSet(to) {
					push(to, st)
				}
				break
			}
			for _, e := range edges {
				if e.Kind != cfg.EdgeIndirectJump || !inSet(e.To) {
					continue
				}
				m.budget.AddFork()
				push(e.To, m.cloneState(st))
			}

		case x86.OpRet:
			if to := m.popRetTarget(st); inSet(to) {
				push(to, st)
			}

		default:
			// Plain fall-through boundary, or a syscall on the way to
			// the site: apply the instruction and continue.
			m.step(st, last)
			if fall := succOf(edges, cfg.EdgeFall); inSet(fall) {
				push(fall, st)
			}
		}

		// The path's own buffers move to the first successor; further
		// successors (forks) get copies; a dead end recycles them. st
		// flows into at most one successor by construction (forks carry
		// clones), so it is freed exactly when no successor took it.
		sc.succs = succs[:0]
		if len(succs) == 0 {
			m.freeState(st)
			sc.freeVisits(visits)
			continue
		}
		stUsed := false
		for i := range succs {
			stack = append(stack, succs[i])
			if i == 0 {
				visitStack = append(visitStack, visits)
			} else {
				visitStack = append(visitStack, sc.cloneVisits(visits))
			}
			if succs[i].st == st {
				stUsed = true
			}
			succs[i] = task{} // the stack holds it now
		}
		if !stUsed {
			m.freeState(st)
		}
	}
	m.budget.AddSteps(pending)
	sc.stack = stack[:0]
	sc.visits = visitStack[:0]
	runPool.Put(sc)
	return res
}

// succOf returns the target of the first edge of the given kind, or -1.
func succOf(edges []cfg.Edge, kind cfg.EdgeKind) cfg.BlockID {
	for _, e := range edges {
		if e.Kind == kind {
			return e.To
		}
	}
	return -1
}

// pushRet pushes a concrete return address.
func (m *Machine) pushRet(st *State, ret uint64) {
	rsp := st.Reg(x86.RSP)
	if rsp.Kind != KStackPtr {
		return
	}
	off := rsp.StackOff() - 8
	st.SetReg(x86.RSP, StackPtr(off))
	st.StoreStack(off, Const(ret))
}

// popRetTarget pops the return address and resolves its block, or -1.
func (m *Machine) popRetTarget(st *State) cfg.BlockID {
	rsp := st.Reg(x86.RSP)
	if rsp.Kind != KStackPtr {
		return -1
	}
	v := st.LoadStack(rsp.StackOff())
	st.SetReg(x86.RSP, StackPtr(rsp.StackOff()+8))
	k, ok := v.IsConst()
	if !ok {
		return -1
	}
	return m.blockAt(k)
}

// blockAt returns the ID of the block starting at addr, or -1.
func (m *Machine) blockAt(addr uint64) cfg.BlockID {
	if b, ok := m.g.BlockAt(addr); ok {
		return b.ID
	}
	return -1
}

// ParamValueAtCall reads the value the callee will observe for parameter
// p, given the state captured at the call instruction.
func ParamValueAtCall(st *State, p ParamRef) Value {
	if !p.Stack {
		return st.Reg(p.Reg)
	}
	rsp := st.Reg(x86.RSP)
	if rsp.Kind != KStackPtr {
		return Unknown()
	}
	// The callee sees its stack parameters above the return address the
	// call is about to push: callee [rsp+off] == caller [rsp+off-8].
	return st.LoadStack(rsp.StackOff() + p.Off - 8)
}
