package cfg_test

// Frontend allocation ceilings, enforced with testing.AllocsPerRun so
// the arena-and-bitset rewrite cannot silently rot back into the
// map-per-round build it replaced (which cost thousands of allocations
// per recovery on deep-search binaries). The package is cfg_test
// because the corpus generator itself links cfg.
//
// Ceilings are deliberately loose — roughly 3× current reality — so
// they flag regressions of kind (a reintroduced per-round rebuild, an
// unpooled decode map), not jitter from corpus drift.

import (
	"runtime"
	"testing"

	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/elff"
)

// recoverProfile is the deep-search shape of the large-binary
// benchmarks — the same binary BenchmarkRecoverLargeBinary measures —
// so the ceiling and the gated benchmark describe one workload.
func recoverProfile(t *testing.T) *elff.Binary {
	t.Helper()
	bin, err := corpus.BuildProgram(corpus.LargeBinaryProfile())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestRecoverAllocCeilingHotDeep(t *testing.T) {
	bin := recoverProfile(t)
	// Warm the builder free list once: the ceiling is the steady state
	// every binary after the first pays in a batch.
	if _, err := cfg.Recover(bin, cfg.Options{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumBlocks() == 0 {
			t.Fatal("empty graph")
		}
	})
	// Steady state is ~16 allocations: the instruction, block, edge and
	// function slabs, the sorted address-taken copy and the import-stub
	// map.
	// The graph keeps no lookup maps, and everything decode- or
	// round-shaped is reused from the builder free list.
	const ceiling = 120
	t.Logf("HotDeep recover: %.1f allocs/op (ceiling %d)", avg, ceiling)
	if avg > ceiling {
		t.Fatalf("cfg.Recover allocates %.1f/op, ceiling %d", avg, ceiling)
	}
}

// TestRecoverBytesPerInstruction bounds the bytes Recover allocates per
// decoded instruction on the decoy-heavy shape that dominates a cold
// sweep's frontend time. After a warm-up the decode arena comes from
// the builder free list, so what remains is the address-ordered
// instruction copy the graph keeps (32 bytes each) and the block, edge
// and function slabs. Unlike the count ceiling above, this one is
// tight on purpose: it reads 55 today, read 97 with pointer-linked
// blocks and edges and 137 with the 72-byte record, so a field added
// to x86.Inst, Block or Edge trips it.
func TestRecoverBytesPerInstruction(t *testing.T) {
	var p corpus.Profile
	for _, q := range corpus.DebianProfiles(42) {
		if q.Class == corpus.FailCFGHuge {
			p = q
			break
		}
	}
	bin, err := corpus.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := cfg.Recover(bin, cfg.Options{}) // warm the builder free list
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if g, err = cfg.Recover(bin, cfg.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(g.Stats.DecodedInsns)
	const ceiling = 60
	t.Logf("%s: %d instructions, %.1f bytes allocated per instruction (ceiling %d)",
		p.Name, g.Stats.DecodedInsns, per, ceiling)
	if per > ceiling {
		t.Fatalf("cfg.Recover allocates %.1f bytes per decoded instruction, ceiling %d", per, ceiling)
	}
}
