package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/emu"
	"bside/internal/ident"
	"bside/internal/shared"
)

// TestPropertyNoFalseNegativesRandomPrograms is the repository's
// headline property: for randomly parameterized programs, B-Side's
// statically identified set is always a superset of the dynamically
// observed one.
func TestPropertyNoFalseNegativesRandomPrograms(t *testing.T) {
	libc, err := corpus.BuildLibc()
	if err != nil {
		t.Fatal(err)
	}
	libs := map[string]*elff.Binary{"libc.so.6": libc}
	loadLib := func(name string) (*elff.Binary, error) {
		if l, ok := libs[name]; ok {
			return l, nil
		}
		return nil, &notFound{name}
	}

	f := func(seed int64, direct, wrap, stack, handlers, cold uint8, dynamic bool) bool {
		p := corpus.Profile{
			Name:         "prop",
			Kind:         elff.KindStatic,
			HotDirect:    1 + int(direct%12),
			HotWrapper:   int(wrap % 6),
			HotStack:     int(stack % 4),
			Handlers:     int(handlers % 4),
			ColdDirect:   int(cold % 8),
			StackedTruth: 1,
			Filler:       20,
			Seed:         seed,
		}
		if dynamic {
			p.Kind = elff.KindDynamic
			p.HotLibc = 4
			p.ColdLibc = 2
			p.UseLibcWrapper = true
		}
		bin, err := corpus.BuildProgram(p)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		m, err := emu.NewProcess(bin, libs)
		if err != nil {
			t.Logf("load: %v", err)
			return false
		}
		if err := m.Run(2_000_000); err != nil {
			t.Logf("emulate: %v", err)
			return false
		}

		an := shared.NewAnalyzer(loadLib, ident.Config{})
		rep, err := an.Program(bin)
		if err != nil {
			t.Logf("analyze: %v", err)
			return false
		}
		if rep.FailOpen {
			return true // the full table is trivially a superset
		}
		have := make(map[uint64]bool, len(rep.Syscalls))
		for _, n := range rep.Syscalls {
			have[n] = true
		}
		for n := range m.SyscallSet() {
			if !have[n] {
				t.Logf("seed %d: false negative %d", seed, n)
				return false
			}
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}

type notFound struct{ name string }

func (e *notFound) Error() string { return "not found: " + e.name }

// TestPropertyCFGEdgeSymmetry checks that every successor edge has the
// matching predecessor edge and vice versa, over random programs.
func TestPropertyCFGEdgeSymmetry(t *testing.T) {
	f := func(seed int64, direct, handlers uint8) bool {
		bin, err := corpus.BuildProgram(corpus.Profile{
			Name: "sym", Kind: elff.KindStatic,
			HotDirect: 1 + int(direct%10), Handlers: int(handlers % 4),
			ColdDirect: 3, Filler: 15, Seed: seed,
		})
		if err != nil {
			return false
		}
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			return false
		}
		blocks := g.Blocks()
		for i := range blocks {
			blk := &blocks[i]
			for _, e := range g.Succs(blk) {
				if e.From != blk.ID {
					return false
				}
				found := false
				for _, p := range g.Preds(g.Block(e.To)) {
					if p.From == blk.ID && p.Kind == e.Kind {
						found = true
					}
				}
				if !found {
					return false
				}
			}
			for _, e := range g.Preds(blk) {
				if e.To != blk.ID {
					return false
				}
			}
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBlocksPartitionCode checks that recovered blocks never
// overlap and all decoded instructions stay inside the code region.
func TestPropertyBlocksPartitionCode(t *testing.T) {
	f := func(seed int64, direct uint8) bool {
		bin, err := corpus.BuildProgram(corpus.Profile{
			Name: "part", Kind: elff.KindStatic,
			HotDirect: 1 + int(direct%10), ColdDirect: 2,
			HotWrapper: 2, Filler: 25, Seed: seed,
		})
		if err != nil {
			return false
		}
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			return false
		}
		blocks := g.Blocks()
		for i := range blocks {
			blk := &blocks[i]
			if !bin.CodeContains(blk.Addr) || g.End(blk) > bin.Base+bin.CodeSize {
				return false
			}
			if i > 0 && g.End(&blocks[i-1]) > blk.Addr {
				return false // overlap
			}
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIdentifiedSubsetOfStaticReach: every identified syscall
// number must appear as an immediate somewhere in the program or its
// libraries (no invented values).
func TestPropertyNoInventedValues(t *testing.T) {
	set, err := corpus.GenerateApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range set.Apps {
		an := shared.NewAnalyzer(set.LoadLib, ident.Config{})
		rep, err := an.Program(app.Bin)
		if err != nil {
			t.Fatal(err)
		}
		// Truth ⊆ identified already checked elsewhere; here: identified
		// values must be < the syscall upper bound and form a sorted,
		// deduplicated list.
		last := int64(-1)
		for _, n := range rep.Syscalls {
			if int64(n) <= last {
				t.Fatalf("%s: unsorted/duplicated %d after %d", app.Profile.Name, n, last)
			}
			last = int64(n)
			if n >= 1024 {
				t.Fatalf("%s: artifact value %d", app.Profile.Name, n)
			}
		}
	}
}
