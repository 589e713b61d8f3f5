package symex

import (
	"slices"
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
	// HitBudget is set when the search stopped early.
	HitBudget bool
	// BlocksExecuted counts block executions (Table 3's "BBs explored").
	BlocksExecuted int
}

// Machine executes symbolic paths over a recovered CFG. One machine
// may run searches from many goroutines concurrently. Its scratch (the
// live path state, a run's visit counts and forks) comes from the
// package-level statePool and runPool, not from pools of its own: the
// runtime keeps a used pool reachable until the second GC after its
// last use, and a pool inside the Machine would keep the Machine and
// its graph alive with it. Pooled items hold no graph pointers (a fork
// names its block by ID), so they recycle across binaries too.
type Machine struct {
	g           *cfg.Graph
	budget      *Budget
	importSlots map[uint64]bool
}

var (
	statePool sync.Pool // *State, scrubbed
	runPool   sync.Pool // *runScratch, its visit counts all zero
)

// runScratch is the per-RunToSite working set, pooled so a directed
// run allocates nothing: the live path's visit count per block (all
// zero between runs), the log of the blocks it counted, and the forks
// set aside to resume.
type runScratch struct {
	visits  []uint16
	counted []cfg.BlockID
	forks   []fork
}

// fork is a successor set aside at a branch: the block it starts at,
// the registers at the branch, the lengths of the live state's write
// log and of the visit log then, and the return address an
// indirect-call target pushes when it resumes (0 for none).
type fork struct {
	blk     cfg.BlockID
	regs    [x86.NumGPR]Value
	writes  int
	counted int
	ret     uint64
}

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

// NewState returns an empty path state drawn from the state pool, for
// RunToSite to take over.
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

// flushSteps is how many steps a run counts locally before it adds
// them to the shared budget.
const flushSteps = 1024

// RunToSite performs directed forward symbolic execution from start
// toward site. Only blocks in allowed (plus the site itself) may be
// entered; calls to functions outside the set are skipped with an
// ABI-faithful register havoc. atSite is called with each path's state
// just before the site block's last instruction (the syscall, or the
// call into a wrapper), in the order paths reach the site; it must not
// keep the state. RunToSite takes init over as its live state and
// recycles it.
//
// The search is depth first over one live state. At a branch the
// other allowed successors are set aside as forks, each a copy of the
// registers plus the lengths of the state's write log and of the visit
// log. Resuming a fork undoes the memory writes and the visit counts
// logged since its branch, so a fork copies no map and no visit array.
// The successor a branch lists last runs first.
func (m *Machine) RunToSite(start *cfg.Block, init *State, allowed *cfg.BlockSet, site *cfg.Block, atSite func(*State)) Result {
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
	if n := g.NumBlocks(); cap(sc.visits) < n {
		sc.visits = make([]uint16, n)
	} else {
		sc.visits = sc.visits[:n]
	}
	st := init
	// setAside records the live state, as it stands, as a fork at blk.
	// It fills the fork in place: a fork literal appended would copy
	// the registers twice.
	setAside := func(blk cfg.BlockID, ret uint64) {
		n := len(sc.forks)
		sc.forks = slices.Grow(sc.forks, 1)[:n+1]
		f := &sc.forks[n]
		f.blk, f.writes, f.counted, f.ret = blk, len(st.writes), len(sc.counted), ret
		f.regs = st.Regs
	}

	next := start.ID // the live path's next block; -1 once it ended
	pending := 0     // steps executed but not yet added to the budget
	for next >= 0 || len(sc.forks) > 0 {
		if m.budget.exhausted(pending) {
			res.HitBudget = true
			break
		}
		if next < 0 {
			next = m.resume(sc, st)
		}
		id := next
		next = -1
		if sc.visits[id] >= maxVisits {
			continue
		}
		sc.visits[id]++
		sc.counted = append(sc.counted, id)
		res.BlocksExecuted++

		blk := g.Block(id)
		insns := g.Insns(blk)
		n := len(insns)

		// Execute the block body (everything but the last instruction),
		// charging the whole block to the local count; the shared
		// budget sees it at the next flush.
		for i := range n - 1 {
			m.step(st, &insns[i])
		}
		if pending += n; pending >= flushSteps {
			m.budget.AddSteps(pending)
			pending = 0
		}

		if blk == site {
			atSite(st)
			continue
		}

		// Dispatch on the final instruction: next is the successor the
		// live state continues into, and every other one is set aside.
		// A branch with no live successor resumes its last fork first.
		edges := g.Succs(blk)
		last := &insns[n-1]
		switch last.Op {
		case x86.OpJmp:
			if to := succOf(edges, cfg.EdgeJump); inSet(to) {
				next = to
			}

		case x86.OpJcc:
			to := succOf(edges, cfg.EdgeJump)
			fall := succOf(edges, cfg.EdgeFall)
			if inSet(to) && inSet(fall) {
				m.budget.AddFork()
				setAside(fall, 0)
				next = to
			} else if inSet(to) {
				next = to
			} else if inSet(fall) {
				next = fall
			}

		case x86.OpCall:
			callee := succOf(edges, cfg.EdgeCall)
			fall := succOf(edges, cfg.EdgeCallFall)
			if inSet(callee) {
				m.pushRet(st, last.Next())
				next = callee
			} else if inSet(fall) {
				st.havoc(x86.CallerSaved)
				next = fall
			}

		case x86.OpCallInd:
			fall := succOf(edges, cfg.EdgeCallFall)
			if g.ImportCall(blk) != "" {
				if inSet(fall) {
					st.havoc(x86.CallerSaved)
					next = fall
				}
				break
			}
			tv := m.evalOperand(st, last, last.Dst, last.OpSize)
			if k, ok := tv.IsConst(); ok {
				if to := m.blockAt(k); inSet(to) {
					m.pushRet(st, last.Next())
					next = to
					break
				}
				if inSet(fall) {
					st.havoc(x86.CallerSaved)
					next = fall
				}
				break
			}
			// Symbolic target: fork into each allowed heuristic target
			// and also the skip-the-call continuation.
			for _, e := range edges {
				if e.Kind != cfg.EdgeIndirectCall || !inSet(e.To) {
					continue
				}
				m.budget.AddFork()
				setAside(e.To, last.Next())
			}
			if inSet(fall) {
				st.havoc(x86.CallerSaved)
				next = fall
			}

		case x86.OpJmpInd:
			if g.ImportCall(blk) != "" {
				// Import stub: model call-and-return through the
				// external function.
				st.havoc(x86.CallerSaved)
				if to := m.popRetTarget(st); inSet(to) {
					next = to
				}
				break
			}
			tv := m.evalOperand(st, last, last.Dst, last.OpSize)
			if k, ok := tv.IsConst(); ok {
				if to := m.blockAt(k); inSet(to) {
					next = to
				}
				break
			}
			for _, e := range edges {
				if e.Kind != cfg.EdgeIndirectJump || !inSet(e.To) {
					continue
				}
				m.budget.AddFork()
				setAside(e.To, 0)
			}

		case x86.OpRet:
			if to := m.popRetTarget(st); inSet(to) {
				next = to
			}

		default:
			// Plain fall-through boundary, or a syscall on the way to
			// the site: apply the instruction and continue.
			m.step(st, last)
			if fall := succOf(edges, cfg.EdgeFall); inSet(fall) {
				next = fall
			}
		}
	}
	m.budget.AddSteps(pending)

	// Leave the visit counts all zero for the next run, and drop the
	// forks a budget stop left behind.
	sc.uncount(0)
	sc.forks = sc.forks[:0]
	runPool.Put(sc)
	st.reset()
	statePool.Put(st)
	return res
}

// resume pops the latest fork into the live state st: it restores the
// registers, undoes the memory writes and visit counts logged since
// the fork's branch, pushes its return address, and returns its block.
func (m *Machine) resume(sc *runScratch, st *State) cfg.BlockID {
	f := &sc.forks[len(sc.forks)-1]
	sc.forks = sc.forks[:len(sc.forks)-1]
	st.Regs = f.regs
	st.undo(f.writes)
	sc.uncount(f.counted)
	if f.ret != 0 {
		m.pushRet(st, f.ret)
	}
	return f.blk
}

// uncount takes back the visits counted after the first n.
func (sc *runScratch) uncount(n int) {
	for _, id := range sc.counted[n:] {
		sc.visits[id]--
	}
	sc.counted = sc.counted[:n]
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
