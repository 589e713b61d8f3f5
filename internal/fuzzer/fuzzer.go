// Package fuzzer turns B-Side's headline guarantee — every syscall a
// program can make at runtime is in the statically identified set —
// into a continuously checked property over randomized inputs.
//
// A seeded generator (Gen) composes the corpus's building blocks —
// wrapper chains of random depth, indirect calls through tables and
// globals, random DT_NEEDED library graphs, static/PIE/static-PIE
// binary kinds, dead-code syscall sites — into valid ELF binaries far
// outside the six hand-built application profiles. An Oracle then
// executes each binary under the emulator for ground truth and asserts
// three properties:
//
//   - soundness: the emulator-observed syscall set is a subset of the
//     identified set (or the analysis honestly failed open);
//   - invariance: analysis results are byte-identical across
//     intra-binary worker counts, per-function memoization on vs. off,
//     cache cold vs. warm runs, warm reads from the loose files vs. the
//     in-process memory tier vs. a pack, and the direct vs. batch
//     public API paths;
//   - baseline sanity: the Chestnut and SysFilter reimplementations
//     fail only in their documented modes (static images, missing
//     unwind metadata).
//
// A failing seed can be reduced with Shrink, which bisects the
// generating profile to a minimal still-failing reproducer and emits it
// as a JSON repro file suitable for checking in as a regression case
// (see testdata/regressions). The `bside fuzz` subcommand and the
// nightly CI job drive the same Gen/Oracle pair, so a violation found
// anywhere is reproducible everywhere from its seed alone.
package fuzzer

import (
	"fmt"
	"math/rand"

	"bside/internal/corpus"
	"bside/internal/elff"
)

// Case is one generated fuzz input: a corpus profile derived
// deterministically from a seed. Building the profile yields
// byte-identical binaries on every run and host.
type Case struct {
	Seed    int64          `json:"seed"`
	Profile corpus.Profile `json:"profile"`
}

// Gen derives the fuzz case for a seed. The mapping is pure: the same
// seed always yields the same profile (and, through the deterministic
// builder, the same binary image). Generated profiles stay inside the
// analyzer's sound envelope — no engineered failure classes — so every
// verdict dimension is expected to hold; a violation is a real bug in
// the generator, the analyzer, or the oracle itself.
func Gen(seed int64) Case {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 0x5EED))
	p := corpus.Profile{
		Name: fmt.Sprintf("fuzz-%d", seed),
		Seed: seed,
	}

	// Binary kind: static, dynamic (x2 weight), or static-PIE.
	switch rng.Intn(4) {
	case 0:
		p.Kind = elff.KindStatic
	case 3:
		// Static-PIE oddball: ET_DYN with an entry point, no imports.
		p.Kind = elff.KindShared
		p.StaticPIE = true
		p.HasUnwind = rng.Intn(2) == 0
	default:
		p.Kind = elff.KindDynamic
		p.HasUnwind = rng.Intn(2) == 0
	}

	// Hot-path composition.
	p.HotDirect = 1 + rng.Intn(10)
	p.HotWrapper = rng.Intn(5)
	p.HotStack = rng.Intn(3)
	p.Handlers = rng.Intn(3)
	p.TableHandlers = rng.Intn(3)
	// Table placement: anonymous data, a read-only section, a RELRO
	// section with RELATIVE relocs, or writable .data — the provenance
	// layer must narrow the first three kinds of sites and must NOT
	// trust the fourth. Packing shifts slots off 8-byte alignment.
	p.TableSection = []string{"", "rodata", "relro", "data"}[rng.Intn(4)]
	p.TablePacked = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		p.SigDecoys = rng.Intn(3)
	}
	// Cold handlers need at least one indirect site to be wired into the
	// CFG; the synthesizer normalizes unsatisfiable combinations away,
	// so only draw them when they can exist.
	if p.Handlers+p.TableHandlers+p.SigDecoys > 0 {
		p.ColdHandlers = rng.Intn(3)
	}
	p.WrapperDepth = rng.Intn(5)
	if rng.Intn(4) == 0 {
		// Occasional deep-search site, shallow enough to stay cheap.
		p.HotDeep = 1
		p.DeepBlocks = 6 + rng.Intn(10)
	}

	// Dead code (statically reachable, dynamically dormant).
	p.ColdDirect = rng.Intn(6)
	p.ColdWrapper = rng.Intn(3)

	p.StackedTruth = rng.Intn(3)
	p.DeniedVals = rng.Intn(3)
	p.Filler = 8 + rng.Intn(40)

	if p.Kind == elff.KindDynamic {
		p.HotLibc = rng.Intn(8)
		p.ColdLibc = rng.Intn(4)
		p.ExtraLibs = rng.Intn(4)
		p.UseLibcWrapper = rng.Intn(3) > 0
		// Random DT_NEEDED graph: linking a graph lib pulls its whole
		// dependency DAG into the load closure.
		for i, n := 0, rng.Intn(3); i < n; i++ {
			p.GraphLibs = append(p.GraphLibs, rng.Intn(corpus.NumGraphLibs))
		}
	}
	return Case{Seed: seed, Profile: p}
}
