package phases

import (
	"sort"
	"strconv"
	"strings"

	"bside/internal/cfg"
	"bside/internal/ident"
	"bside/internal/linux"
)

// NaivePhase is a phase found by the strawman detector.
type NaivePhase struct {
	Blocks  []uint64
	Allowed []uint64
}

// DetectNaive is the intuitive CFG-navigation method the paper
// dismisses as too slow (§4.7: 700s vs 41s on a hello-world, 4h vs
// 20min on Nginx): for every reachable block it walks the whole graph
// to compute which syscall-emitting blocks remain reachable, then
// groups blocks by that signature. One full traversal per block makes
// it quadratic; the ablation benchmark measures the gap against the
// automaton construction.
func DetectNaive(in Input) []NaivePhase {
	g := in.Graph
	start := in.Start
	if start == 0 {
		start = g.Bin.Entry
	}
	reach := g.ReachableSet(start)

	groups := make(map[string][]uint64)
	allowedByKey := make(map[string]map[uint64]bool)
	seen := cfg.NewBlockSet(g.NumBlocks())
	var stack []*cfg.Block
	for _, blk := range g.SortedBlocks() {
		if !reach.Has(blk) {
			continue
		}
		// Full forward traversal from blk (deliberately re-done per
		// block, as the naive method navigates the CFG each time; the
		// reused visited set does not change the quadratic shape).
		seen.Reset()
		seen.Add(blk)
		stack = append(stack[:0], blk)
		var sig []uint64
		allowed := make(map[uint64]bool)
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if emits := in.Emits[b.Addr]; len(emits) > 0 {
				sig = append(sig, b.Addr)
				for _, s := range emits {
					allowed[s] = true
				}
			}
			for _, e := range b.Succs {
				if seen.Add(e.To) {
					stack = append(stack, e.To)
				}
			}
		}
		sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] })
		var sb strings.Builder
		for _, a := range sig {
			sb.WriteString(strconv.FormatUint(a, 16))
			sb.WriteByte(',')
		}
		k := sb.String()
		groups[k] = append(groups[k], blk.Addr)
		allowedByKey[k] = allowed
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]NaivePhase, 0, len(keys))
	for _, k := range keys {
		blocks := groups[k]
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		allowed := make([]uint64, 0, len(allowedByKey[k]))
		for s := range allowedByKey[k] {
			allowed = append(allowed, s)
		}
		sort.Slice(allowed, func(i, j int) bool { return allowed[i] < allowed[j] })
		out = append(out, NaivePhase{Blocks: blocks, Allowed: allowed})
	}
	return out
}

// EmitsFromReport derives the Emits map from an identification report:
// plain syscall sites emit their resolved numbers, wrapper and import
// call sites emit the numbers resolved at the call, and wrapper
// definition sites emit nothing (their behaviour is attributed to call
// sites). A fail-open site emits nothing here — phase policies derived
// from a fail-open binary are not meaningful and callers should check
// Report.FailOpen first.
func EmitsFromReport(rep *ident.Report) map[uint64][]uint64 {
	out := make(map[uint64][]uint64)
	var set linux.SyscallBitset
	for _, site := range rep.Sites {
		if site.Kind == ident.SiteWrapperDef || len(site.Syscalls) == 0 {
			continue
		}
		set = linux.SyscallBitset{}
		set.AddAll(out[site.Block.Addr])
		set.AddAll(site.Syscalls)
		out[site.Block.Addr] = set.Slice()
	}
	return out
}
