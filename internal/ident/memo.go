// Per-function summary memoization: the content-addressed fast path of
// the identification pass. Two analyses of byte-identical functions do
// byte-identical work, so the work is done once per process, with the
// results keyed by a fingerprint of everything the analysis can observe.
// The memo lives in memory only: the persistent store holds per-binary
// verdicts (internal/shared), never per-function ones.
//
// Soundness model. A memo entry may be reused only when the recorded
// computation was a pure function of the fingerprinted content:
//
//   - Wrapper detection is confined to the containing function by
//     construction (the use-define scan filters to in-function
//     predecessors; the symbolic confirmation restricts execution to the
//     function's own blocks, with out-of-set calls havocked identically
//     whatever they target), so every verdict is memoizable.
//   - The per-site backward search crosses function boundaries through
//     caller edges, so a site result is memoized only when the whole
//     search — every visited frontier block and every predecessor it
//     enumerated — stayed inside the containing function (tracked by
//     the search itself; the common Figure 1-A case, a defining
//     immediate next to its syscall, always qualifies).
//   - Results whose shape was influenced by the shared symbolic budget
//     (a HitBudget fail-open) are never stored: budget state is global
//     mutable context, not function content.
//
// The fingerprint covers the function's block addresses, decoded
// instructions, import-call labels and intra-function edges, plus every
// Config knob that can alter a function-local result. Absolute
// addresses are part of the key: two functions hit the same entry only
// when they are byte-identical *and* identically placed — exactly the
// shape of shared stubs and duplicated bodies across a corpus family or
// a batch of binaries stamped from one layout.
package ident

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bside/internal/cfg"
	"bside/internal/symex"
	"bside/internal/x86"
)

// maxMemoEntries bounds the process-wide in-memory memo. The cap is a
// backstop against unbounded growth in fleet-sized runs; entries are
// content-addressed, so refusing to add one never changes results —
// only the speed of the next identical function.
const maxMemoEntries = 1 << 18

// Memo is a concurrency-safe, content-addressed store of per-function
// analysis results. The zero value is ready to use. One process-wide
// instance (ProcessMemo) is shared by every analyzer so identical
// functions are analyzed once per process.
type Memo struct {
	entries sync.Map // memo key -> wrapperRec | siteRec
	size    atomic.Int64
	hits    atomic.Uint64
	misses  atomic.Uint64
}

var processMemo Memo

// ProcessMemo returns the process-wide function-summary memo.
func ProcessMemo() *Memo { return &processMemo }

// MemoStats is a snapshot of memo traffic.
type MemoStats struct {
	// Hits counts lookups served from the memo.
	Hits uint64
	// Misses counts lookups that had to run the real analysis.
	Misses uint64
	// Entries is the current in-memory entry count.
	Entries int64
}

// Stats returns the memo's counters.
func (m *Memo) Stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: m.size.Load()}
}

// wrapperRec is the memoized form of one wrapper-detection verdict.
// Steps/Forks are the original computation's budget consumption,
// replayed into the shared budget on every hit so memoized and
// unmemoized analyses drain it identically (a tight budget must
// exhaust at the same point in both modes).
type wrapperRec struct {
	Wrapper bool
	Param   symex.ParamRef
	Steps   int
	Forks   int
}

// siteRec is the memoized form of one self-contained site
// identification. Steps/Forks replay like wrapperRec's.
type siteRec struct {
	Syscalls []uint64
	FailOpen bool
	Blocks   int // symbolically executed blocks
	Steps    int
	Forks    int
}

// loadRec fetches the entry for key.
func loadRec[R wrapperRec | siteRec](m *Memo, key string) (R, bool) {
	var zero R
	if m == nil {
		return zero, false
	}
	if v, ok := m.entries.Load(key); ok {
		m.hits.Add(1)
		return v.(R), true
	}
	m.misses.Add(1)
	return zero, false
}

// save records a freshly computed entry.
func (m *Memo) save(key string, rec any) {
	if m == nil || m.size.Load() >= maxMemoEntries {
		return
	}
	if _, loaded := m.entries.LoadOrStore(key, rec); !loaded {
		m.size.Add(1)
	}
}

// memoConfKey canonically renders every Config field that can change a
// function-local result. Workers is excluded (it never changes
// results); the budget's deadline is excluded (wall-clock state, and
// budget-shaped results are never stored).
func memoConfKey(c Config) string {
	return fmt.Sprintf("bfs=%d,fr=%d,sp=%d,up=%d,rl=%d,bud=%d/%d/%d",
		c.MaxBFSDepth, c.MaxFrontier, c.StackParams, c.SyscallUpper,
		c.ResolverLayers,
		c.Budget.MaxSteps, c.Budget.MaxForks, c.Budget.MaxVisits)
}

// funcFingerprint hashes everything a function-confined analysis can
// observe: entry, per-block addresses, import-call labels, decoded
// instructions (all operand fields), and the intra-function successor
// edges in their original order (edge targets outside the function are
// omitted — a confined search treats "edge out of the set" and "no
// edge" identically). Preds within the function mirror the encoded
// succs; preds from outside the function disqualify a site from
// memoization before the hash matters.
func funcFingerprint(fn *cfg.Func) string {
	h := sha256.New()
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	inFn := func(b *cfg.Block) bool {
		return b.Addr >= fn.Entry && b.Addr < fn.End() && blockInFunc(fn, b)
	}
	putOp := func(op x86.Operand) {
		h.Write([]byte{byte(op.Kind), byte(op.Reg)})
		putU64(uint64(op.Imm))
		h.Write([]byte{byte(op.Mem.Base), byte(op.Mem.Index), op.Mem.Scale})
		putU64(uint64(int64(op.Mem.Disp)))
	}
	putU64(fn.Entry)
	putU64(uint64(len(fn.Blocks)))
	for _, b := range fn.Blocks {
		putU64(b.Addr)
		putU64(uint64(len(b.ImportCall)))
		h.Write([]byte(b.ImportCall))
		putU64(uint64(len(b.Insns)))
		for _, in := range b.Insns {
			putU64(in.Addr)
			h.Write([]byte{in.Len, byte(in.Op), byte(in.Cond), in.OpSize})
			putOp(in.Dst)
			putOp(in.Src)
		}
		for _, e := range b.Succs {
			if !inFn(e.To) {
				continue
			}
			h.Write([]byte{byte(e.Kind)})
			putU64(e.To.Addr)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// blockInFunc reports whether b is one of fn's member blocks (the
// nearest-preceding-entry rule can strand range-contained blocks in a
// neighbouring function, so the range check alone is not enough).
func blockInFunc(fn *cfg.Func, b *cfg.Block) bool {
	i := sort.Search(len(fn.Blocks), func(i int) bool { return fn.Blocks[i].Addr >= b.Addr })
	return i < len(fn.Blocks) && fn.Blocks[i] == b
}
