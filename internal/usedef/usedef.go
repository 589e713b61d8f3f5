// Package usedef implements a classic intra-procedural use-define chain
// analysis over registers. It deliberately does not track values through
// memory: that limitation is exactly what the paper identifies as the
// precision/soundness gap of SysFilter-style identification (§2.4), and
// it is what makes this analysis a cheap *first phase* for B-Side's
// wrapper-detection heuristic (§4.4) — a negative answer here means the
// syscall number may come from outside the function.
package usedef

import (
	"sort"
	"sync"

	"bside/internal/cfg"
	"bside/internal/x86"
)

// maxVisits bounds the (block, register) pairs explored per query.
const maxVisits = 4_096

// Request asks for the possible constant values of Reg immediately
// before executing instruction InsnIdx of Block, staying within Fn.
// Block and Fn belong to Graph.
type Request struct {
	Graph   *cfg.Graph
	Fn      *cfg.Func
	Block   *cfg.Block
	InsnIdx int // resolve the value before this instruction
	Reg     x86.Reg

	// MemRead, when non-nil, extends the domain to 8-byte loads from
	// concrete (RIP-relative) addresses: it returns the quad at the
	// given virtual address and whether the address is covered. The
	// contract is strict — the callback must answer only for IMMUTABLE
	// memory (read-only data sections), because a positive resolve
	// promises the complete runtime value set, and a writable slot can
	// hold anything by the time the load executes. Nil keeps the
	// classic registers-only domain.
	MemRead func(addr uint64) (uint64, bool)
}

// bitset is a growable index bitset: the (block, register) visited
// set is keyed by dense block IDs, so one pooled resolver serves any
// number of queries without map churn.
type bitset struct{ words []uint64 }

func (b *bitset) add(id int) bool {
	if w := id/64 + 1; w > len(b.words) {
		words := make([]uint64, w)
		copy(words, b.words)
		b.words = words
	}
	w, bit := id/64, uint64(1)<<(id%64)
	if b.words[w]&bit != 0 {
		return false
	}
	b.words[w] |= bit
	return true
}

func (b *bitset) reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

type resolver struct {
	g       *cfg.Graph
	fn      *cfg.Func
	visited bitset // block ID × register pairs already joined
	budget  int
	memRead func(addr uint64) (uint64, bool)
}

var resolverPool = sync.Pool{New: func() any { return new(resolver) }}

// Resolve walks use-define chains backward and returns the sorted set
// of constants Reg may hold at the requested point. ok is false when
// any chain escapes the supported domain (memory operands, partial
// writes, clobbering calls, values flowing in from callers).
func Resolve(req Request) (vals []uint64, ok bool) {
	r := resolverPool.Get().(*resolver)
	r.g = req.Graph
	r.fn = req.Fn
	r.visited.reset()
	r.budget = maxVisits
	r.memRead = req.MemRead
	set := make(map[uint64]bool)
	resolved := r.resolveAt(req.Block, req.InsnIdx, req.Reg, set)
	r.g = nil
	r.fn = nil
	r.memRead = nil
	resolverPool.Put(r)
	if !resolved {
		return nil, false
	}
	vals = make([]uint64, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals, true
}

// resolveAt scans backward from instruction idx (exclusive) in blk.
func (r *resolver) resolveAt(blk *cfg.Block, idx int, reg x86.Reg, out map[uint64]bool) bool {
	r.budget--
	if r.budget < 0 {
		return false
	}
	insns := r.g.Insns(blk)
	for i := idx - 1; i >= 0; i-- {
		in := insns[i]
		if !in.Writes().Has(reg) {
			continue
		}
		if in.OpSize < 4 {
			return false // partial register write: out of domain
		}
		// Found the defining instruction; interpret it.
		switch in.Op {
		case x86.OpMov:
			switch in.Src.Kind {
			case x86.KindImm:
				out[uint64(in.Imm)] = true
				return true
			case x86.KindReg:
				return r.resolveAt(blk, i, in.Src.Reg, out)
			}
			// A full-width load from a concrete address is in domain
			// exactly when the caller vouches for the memory being
			// immutable (see Request.MemRead).
			if ea, ok := in.MemEA(in.Src); ok && r.memRead != nil && in.OpSize == 8 {
				if v, ok := r.memRead(ea); ok {
					out[v] = true
					return true
				}
			}
			return false
		case x86.OpXor, x86.OpAdd, x86.OpSub, x86.OpAnd, x86.OpOr, x86.OpShl, x86.OpShr, x86.OpInc, x86.OpDec:
			if in.Op == x86.OpXor && in.Src == in.Dst {
				out[0] = true // zeroing idiom
				return true
			}
			return r.transform(blk, i, reg, in, out)
		case x86.OpLea:
			if ea, ok := in.MemEA(in.Src); ok {
				out[ea] = true
				return true
			}
			return false
		default:
			// A clobber (call, syscall, pop, leave), an extension, ...
			return false
		}
	}

	// Reached the block head without a definition.
	if blk.Addr == r.fn.Entry {
		// The value flows in from the caller: out of the
		// intra-procedural domain. This is the signal wrapper
		// detection's phase 1 looks for.
		return false
	}
	if !r.visited.add(int(blk.ID)*int(x86.NumGPR) + int(reg)) {
		return true // loop back-edge: values join from elsewhere
	}

	any := false
	for _, e := range r.g.Preds(blk) {
		switch e.Kind {
		case cfg.EdgeFall, cfg.EdgeJump, cfg.EdgeCallFall:
		default:
			continue
		}
		if e.From < r.fn.First || e.From >= r.fn.End {
			continue // not in the function
		}
		any = true
		from := r.g.Block(e.From)
		if !r.resolveAt(from, len(r.g.Insns(from)), reg, out) {
			return false
		}
	}
	// A block with no intra-function predecessors that is not the entry
	// is typically an indirect-call target; its inputs are unknown.
	return any
}

// transform folds an ALU instruction with an immediate source, or inc
// or dec, over the recursively-resolved prior values.
func (r *resolver) transform(blk *cfg.Block, i int, reg x86.Reg, in x86.Inst, out map[uint64]bool) bool {
	if in.Src.Kind != x86.KindImm && in.Src.Kind != x86.KindNone {
		return false
	}
	sub := make(map[uint64]bool)
	if !r.resolveAt(blk, i, reg, sub) {
		return false
	}
	for v := range sub {
		k, _ := x86.Fold(in.Op, v, uint64(in.Imm), in.OpSize)
		out[k] = true
	}
	return true
}
