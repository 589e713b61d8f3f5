package fuzzer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"

	"bside"
	"bside/internal/baseline"
	"bside/internal/cache"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/emu"
	"bside/internal/eval"
	"bside/internal/faults"
	"bside/internal/ident"
	"bside/internal/serve"
	"bside/internal/sweep"
)

// Verdict is the oracle's judgement of one case — the JSON-line record
// `bside fuzz` emits per seed. Everything needed to reproduce is in the
// seed; everything needed to triage without reproducing is in the rest.
type Verdict struct {
	Seed int64  `json:"seed"`
	Name string `json:"name"`
	// Kind is the built binary's ELF kind, with static-PIE called out.
	Kind string `json:"kind"`
	// ImageSHA256 is the hash of the built ELF image: the determinism
	// witness (same seed must yield the same hash anywhere).
	ImageSHA256 string `json:"image_sha256"`
	// Truth is the emulator-observed syscall set, sorted.
	Truth []uint64 `json:"truth"`
	// Identified is B-Side's result on the first analysis leg (resolver
	// at its default layers).
	Identified []uint64 `json:"identified"`
	FailOpen   bool     `json:"fail_open,omitempty"`
	Wrappers   int      `json:"wrappers"`
	// ResolverOff is the reference leg's identified set with the
	// indirect-call resolver disabled — the pre-resolver
	// over-approximation. It is checked for soundness against Truth and
	// must be a superset of Identified (the resolver may only shrink).
	ResolverOff []uint64 `json:"resolver_off,omitempty"`
	// Precision quantifies the resolver's effect on this case; nil when
	// either leg failed open or failed outright (set sizes would not be
	// comparable).
	Precision *Precision `json:"precision,omitempty"`

	// The three oracle dimensions.
	Sound       bool `json:"sound"`
	Invariant   bool `json:"invariant"`
	BaselinesOK bool `json:"baselines_ok"`

	// Violations explains every failed dimension, one entry per fault.
	Violations []string `json:"violations,omitempty"`
	// Err records an infrastructure failure (generator, emulator, or
	// analysis error) that prevented a full verdict.
	Err string `json:"error,omitempty"`
}

// Precision is the per-case identified-set-size record: how much the
// layered resolver shrank the set, and how much over-approximation
// remains against the emulator truth. Aggregated over a fixed seed
// corpus this is the precision metric the bench gate tracks.
type Precision struct {
	// TruthCount is |emulator-observed set|.
	TruthCount int `json:"truth_count"`
	// IdentifiedCount is |identified| with the resolver at its default.
	IdentifiedCount int `json:"identified_count"`
	// ResolverOffCount is |identified| with the resolver disabled.
	ResolverOffCount int `json:"resolver_off_count"`
	// Shrink is ResolverOffCount - IdentifiedCount: syscalls the
	// resolver proved unreachable (>= 0 by the shrink-only invariant).
	Shrink int `json:"shrink"`
	// Excess is IdentifiedCount - TruthCount: the remaining
	// over-approximation (>= 0 by the soundness invariant).
	Excess int `json:"excess"`
}

// OK reports whether the case passed every oracle dimension.
func (v *Verdict) OK() bool {
	return v.Err == "" && v.Sound && v.Invariant && v.BaselinesOK && len(v.Violations) == 0
}

// Options configures an Oracle.
type Options struct {
	// Dir is the scratch directory for binaries and per-seed caches.
	Dir string
	// Universe supplies the shared libraries; required.
	Universe *Universe
	// EmuBudget bounds the ground-truth emulation. Zero values get
	// defaults (DefaultMaxSteps, a 4096-entry trace cap).
	EmuBudget emu.Budget
	// Workers lists the intra-binary worker counts of the invariance
	// matrix; defaults to 1, 4, 8.
	Workers []int
	// Tamper, when set, rewrites each analysis leg's identified set
	// before its record is built — fault injection for the harness's own
	// tests (a deliberately broken "analyzer" must be caught). Nil in
	// real runs.
	Tamper func(leg string, syscalls []uint64) []uint64
}

// Oracle checks fuzz cases against the soundness, invariance and
// baseline-sanity properties. Safe for sequential reuse across many
// cases; per-case scratch state is cleaned up after each Check.
type Oracle struct {
	opts Options

	// undecidedPath holds a budget-exhausted binary, the first FailIdent
	// profile of the Debian-shaped corpus, which the cache legs carry
	// next to every case.
	undecidedPath, undecidedHash string
}

// replayUndecided re-analyzes the budget-exhausted binary through a warm
// cache with every pipeline stage of it armed to panic, so only the
// stored verdict can answer: the error text must be want, the answer a
// hit on the named tier (see tierHits).
func (o *Oracle) replayUndecided(a *bside.Analyzer, want, tier string) error {
	defer faults.Activate(faults.Rule{Point: faults.Stage, Match: o.undecidedHash, Panic: true})()
	before := tierHits(a.CacheStats(), tier)
	_, err := a.AnalyzeFile(o.undecidedPath)
	if err == nil || err.Error() != want {
		return fmt.Errorf("undecided replay answered %v, want %q", err, want)
	}
	if tierHits(a.CacheStats(), tier) == before {
		return fmt.Errorf("undecided replay was not a %s hit", tier)
	}
	return nil
}

// packedCopy copies the cache directory src into dst and compacts the
// copy into one pack, returning the pack's path. The memory tier is
// keyed by directory, so each dst must be new: packs are named after
// their content, so a fixed dst recreated by a second check of the
// same seed would pass the tier's stat of a pack it promoted from.
func packedCopy(src, dst string) (string, error) {
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		return "", err
	}
	st, err := cache.Open(dst)
	if err != nil {
		return "", err
	}
	cs, err := st.Compact()
	if err == nil && cs.Packed == 0 {
		err = errors.New("compaction packed nothing")
	}
	return cs.PackPath, err
}

// tierHits reads the hit counter of one cache tier: "memory", "pack",
// or "store" for a hit on any tier.
func tierHits(st bside.CacheStats, tier string) uint64 {
	switch tier {
	case "memory":
		return st.MemoryHits
	case "pack":
		return st.PackHits
	}
	return st.Hits
}

// New builds an Oracle.
func New(opts Options) (*Oracle, error) {
	if opts.Dir == "" {
		return nil, errors.New("fuzzer: Options.Dir is required")
	}
	if opts.Universe == nil {
		return nil, errors.New("fuzzer: Options.Universe is required")
	}
	if len(opts.Workers) == 0 {
		opts.Workers = []int{1, 4, 8}
	}
	if opts.EmuBudget.MaxTrace == 0 {
		opts.EmuBudget.MaxTrace = 4096
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	o := &Oracle{opts: opts}
	for _, p := range corpus.DebianProfiles(1) {
		if p.Class != corpus.FailIdent {
			continue
		}
		bin, err := corpus.BuildProgram(p)
		if err != nil {
			return nil, fmt.Errorf("fuzzer: build %s: %w", p.Name, err)
		}
		o.undecidedPath, o.undecidedHash = filepath.Join(opts.Dir, "undecided"), bin.Hash
		if err := bin.WriteFile(o.undecidedPath); err != nil {
			return nil, err
		}
		break
	}
	return o, nil
}

// Check builds the case's binary, derives emulator ground truth, runs
// the analysis-leg matrix, and returns the verdict.
func (o *Oracle) Check(c Case) *Verdict {
	v := &Verdict{Seed: c.Seed, Name: c.Profile.Name, Kind: kindString(c.Profile)}

	bin, err := corpus.BuildProgram(c.Profile)
	if err != nil {
		v.Err = "build: " + err.Error()
		return v
	}
	v.ImageSHA256 = bin.Hash

	binPath := filepath.Join(o.opts.Dir, fmt.Sprintf("bin-%d", c.Seed))
	if err := bin.WriteFile(binPath); err != nil {
		v.Err = "write: " + err.Error()
		return v
	}
	defer os.Remove(binPath)

	// Ground truth: execute for real under the emulator.
	m, err := emu.NewProcess(bin, o.opts.Universe.Set.Libs)
	if err != nil {
		v.Err = "load: " + err.Error()
		return v
	}
	if err := m.RunBudget(o.opts.EmuBudget); err != nil {
		v.Err = "emulate: " + err.Error()
		return v
	}
	if !m.Exited {
		v.Err = "emulate: did not exit"
		return v
	}
	v.Truth = sortedSet(m.SyscallSet())

	// Resolver-off reference leg, deliberately OUTSIDE the invariance
	// matrix: with the indirect-call resolver disabled the identified
	// set legitimately differs from the matrix legs (it is the
	// pre-resolver over-approximation). It anchors three checks below —
	// truth ⊆ off (the old behavior stays sound), on ⊆ off (the
	// resolver only ever shrinks), and the sweep legs' scanner
	// containment (a scan-resolved value the resolver pruned must still
	// be inside the over-approximation).
	var offRec *bside.Record
	offRes, offErr := bside.NewAnalyzer(bside.Options{
		LibraryDir:     o.opts.Universe.Dir,
		IntraWorkers:   1,
		ResolverLayers: -1,
	}).AnalyzeFile(binPath)
	if offErr != nil {
		v.Violations = append(v.Violations, "resolver-off: analysis failed: "+offErr.Error())
	} else {
		offRec = o.recordOf("resolver-off", offRes)
		v.ResolverOff = offRec.Syscalls
	}
	offHas := func(n uint64) bool {
		if offRec == nil || offRec.FailOpen {
			return true // effective set is unknown or the full table
		}
		i := sort.Search(len(offRec.Syscalls), func(i int) bool { return offRec.Syscalls[i] >= n })
		return i < len(offRec.Syscalls) && offRec.Syscalls[i] == n
	}

	// Poisoned twin for the crash-containment legs: the same program
	// with one flipped code byte, so it carries a distinct image hash to
	// key injected faults on while sharing the real binary's shape. Its
	// own analysis result never matters — the legs below sabotage it on
	// purpose and check the neighbor.
	poisonSpec := bin.Spec()
	poisonSpec.Blob = append([]byte(nil), poisonSpec.Blob...)
	poisonSpec.Blob[len(poisonSpec.Blob)/2] ^= 0xFF
	poisonImg, err := elff.Write(poisonSpec)
	if err != nil {
		v.Err = "poison build: " + err.Error()
		return v
	}
	poisonPath := filepath.Join(o.opts.Dir, fmt.Sprintf("poison-%d", c.Seed))
	if err := os.WriteFile(poisonPath, poisonImg, 0o755); err != nil {
		v.Err = "poison write: " + err.Error()
		return v
	}
	defer os.Remove(poisonPath)
	poisonBin, err := elff.Read(poisonImg)
	if err != nil {
		v.Err = "poison read: " + err.Error()
		return v
	}
	poisonHash := poisonBin.Hash

	// The analysis-leg matrix. Every leg must render a byte-identical
	// record; the first leg doubles as the soundness subject.
	cacheDir := filepath.Join(o.opts.Dir, fmt.Sprintf("cache-%d", c.Seed))
	defer os.RemoveAll(cacheDir)
	// The cache legs carry the budget-exhausted binary too: its count-
	// limited verdict is stored cold and must replay warm, from every
	// tier, with the cold text.
	var undecidedText string

	type leg struct {
		name string
		run  func() (*bside.Analysis, error)
	}
	analyzer := func(workers int, cacheDir string) *bside.Analyzer {
		return bside.NewAnalyzer(bside.Options{
			LibraryDir:   o.opts.Universe.Dir,
			IntraWorkers: workers,
			CacheDir:     cacheDir,
		})
	}
	var legs []leg
	for _, w := range o.opts.Workers {
		legs = append(legs, leg{fmt.Sprintf("workers=%d", w), func() (*bside.Analysis, error) {
			return analyzer(w, "").AnalyzeFile(binPath)
		}})
	}
	legs = append(legs,
		leg{"cache-cold", func() (*bside.Analysis, error) {
			a := analyzer(1, cacheDir)
			_, uerr := a.AnalyzeFile(o.undecidedPath)
			if !errors.Is(uerr, ident.ErrTimeout) {
				return nil, fmt.Errorf("budget-exhausted binary answered %v", uerr)
			}
			undecidedText = uerr.Error()
			return a.AnalyzeFile(binPath)
		}},
		leg{"cache-warm", func() (*bside.Analysis, error) {
			a := analyzer(1, cacheDir)
			if err := o.replayUndecided(a, undecidedText, "store"); err != nil {
				return nil, err
			}
			res, err := a.AnalyzeFile(binPath)
			if err == nil && !res.Cached {
				return nil, errors.New("warm run not served from the cache")
			}
			return res, err
		}},
		// Frontend-invariance axis, cache side: the in-process memory
		// tier must be invisible in results. Every store drops its
		// memory copy, so the warm leg read the loose files; it also
		// promoted what it read, so a fresh analyzer on the same
		// directory is answered from the memory tier.
		leg{"cache-mem", func() (*bside.Analysis, error) {
			a := analyzer(1, cacheDir)
			if err := o.replayUndecided(a, undecidedText, "memory"); err != nil {
				return nil, err
			}
			before := a.CacheStats().MemoryHits
			res, err := a.AnalyzeFile(binPath)
			if err == nil && (!res.Cached || a.CacheStats().MemoryHits == before) {
				return nil, errors.New("warm run not served from the memory tier")
			}
			return res, err
		}},
		// Pack-tier axis: compacting the loose entries into a
		// memory-mapped pack must be invisible in results — a warm run
		// over the pack is byte-identical to every other leg, and the
		// hit provably came from the pack tier. The leg runs on a new
		// copy of the cache, which the memory tier has never seen.
		leg{"cache-pack", func() (*bside.Analysis, error) {
			dir, err := os.MkdirTemp(o.opts.Dir, "cache-pack-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			if _, err := packedCopy(cacheDir, dir); err != nil {
				return nil, err
			}
			a, err := bside.NewAnalyzerErr(bside.Options{
				LibraryDir:   o.opts.Universe.Dir,
				IntraWorkers: 1,
				CacheDir:     dir,
			})
			if err != nil {
				return nil, err
			}
			if err := o.replayUndecided(a, undecidedText, "pack"); err != nil {
				return nil, err
			}
			res, err := a.AnalyzeFile(binPath)
			if err == nil {
				if !res.Cached {
					return nil, errors.New("packed warm run not served from the cache")
				}
				if a.CacheStats().PackHits == 0 {
					return nil, errors.New("packed warm run did not hit the pack tier")
				}
			}
			return res, err
		}},
		// Corruption axis: a damaged pack (one flipped bit, checksum
		// broken) must be rejected wholesale — the analyzer recomputes
		// from scratch and still renders the identical record; it
		// must never ghost-serve bytes out of a corrupt mapping. The
		// compaction pruned the copy's loose entries, so nothing else
		// can answer.
		leg{"cache-pack-corrupt", func() (*bside.Analysis, error) {
			dir, err := os.MkdirTemp(o.opts.Dir, "cache-corrupt-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			packPath, err := packedCopy(cacheDir, dir)
			if err != nil {
				return nil, err
			}
			data, err := os.ReadFile(packPath)
			if err != nil {
				return nil, err
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(packPath, data, 0o644); err != nil {
				return nil, err
			}
			res, err := analyzer(1, dir).AnalyzeFile(binPath)
			if err == nil && res.Cached {
				return nil, errors.New("corrupt pack still served a cached result")
			}
			return res, err
		}},
		leg{"batch", func() (*bside.Analysis, error) {
			results, err := analyzer(1, "").AnalyzeAll([]string{binPath}, bside.BatchOptions{})
			if err != nil {
				return nil, err
			}
			return results[0], results[0].Err
		}},
		// Crash-containment axis: arm a panic keyed to the poisoned twin's
		// hash and analyze twin and real binary in one batch. The twin's
		// slot must carry a structured PanicError; the real binary's slot
		// — this leg's return value, byte-compared against every other
		// leg — must be untouched. A peer's crash may cost its own
		// result, never a neighbor's bytes.
		leg{"batch-poison", func() (*bside.Analysis, error) {
			restore := faults.Activate(faults.Rule{Point: faults.Stage, Match: poisonHash, Panic: true})
			defer restore()
			results, err := analyzer(1, "").AnalyzeAll([]string{poisonPath, binPath}, bside.BatchOptions{Jobs: 2})
			if err != nil {
				return nil, err
			}
			pe, ok := bside.IsPanic(results[0].Err)
			if !ok {
				return nil, fmt.Errorf("poisoned slot did not contain a PanicError: %v", results[0].Err)
			}
			if pe.Hash != poisonHash {
				return nil, fmt.Errorf("PanicError blames hash %q, want %q", pe.Hash, poisonHash)
			}
			return results[1], results[1].Err
		}},
		// Same containment through the fleet path: the sweep books the
		// poisoned binary as a phased "panic" failure and keeps moving;
		// the clean binary's line is this leg's record subject.
		leg{"sweep-poison", func() (*bside.Analysis, error) {
			treeDir := filepath.Join(o.opts.Dir, fmt.Sprintf("sweep-poison-%d", c.Seed))
			if err := os.MkdirAll(treeDir, 0o755); err != nil {
				return nil, err
			}
			defer os.RemoveAll(treeDir)
			img, err := os.ReadFile(binPath)
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(treeDir, "bin"), img, 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(treeDir, "poison"), poisonImg, 0o755); err != nil {
				return nil, err
			}
			restore := faults.Activate(faults.Rule{Point: faults.Stage, Match: poisonHash, Panic: true})
			defer restore()
			var clean, poisoned *sweep.Result
			sum, err := sweep.Run(context.Background(), treeDir, sweep.Options{
				Analyzer: bside.NewAnalyzer(bside.Options{
					LibraryDir:   o.opts.Universe.Dir,
					IntraWorkers: 1,
				}),
				Jobs: 2,
				OnResult: func(r *sweep.Result) {
					switch filepath.Base(r.Path) {
					case "bin":
						clean = r
					case "poison":
						poisoned = r
					}
				},
			})
			if err != nil {
				return nil, err
			}
			if sum.Analyzed != 1 || sum.Failed != 1 || sum.FailurePhases["panic"] != 1 {
				return nil, fmt.Errorf("sweep-poison accounting: analyzed=%d failed=%d phases=%v",
					sum.Analyzed, sum.Failed, sum.FailurePhases)
			}
			if poisoned == nil || poisoned.Phase != "panic" {
				return nil, fmt.Errorf("poisoned line not booked as a panic: %+v", poisoned)
			}
			if clean == nil || clean.Error != "" || clean.Analysis == nil {
				return nil, fmt.Errorf("clean line damaged by the poisoned peer: %+v", clean)
			}
			return clean.Analysis, nil
		}},
		// Tamper axis: bytes changed between disk and parse (bit rot, a
		// hostile middlebox) must surface as a malformed-image rejection
		// — never a panic, and never drift in the neighbor's result.
		leg{"batch-tamper", func() (*bside.Analysis, error) {
			restore := faults.Activate(faults.Rule{
				Point: faults.Image,
				Match: filepath.Base(poisonPath),
				Tamper: func(d []byte) []byte {
					if len(d) > 60 {
						return d[:60] // shorter than an ELF header
					}
					return d
				},
			})
			defer restore()
			results, err := analyzer(1, "").AnalyzeAll([]string{poisonPath, binPath}, bside.BatchOptions{Jobs: 2})
			if err != nil {
				return nil, err
			}
			if _, ok := bside.IsPanic(results[0].Err); ok {
				return nil, fmt.Errorf("tampered image panicked instead of failing structured: %v", results[0].Err)
			}
			if !errors.Is(results[0].Err, bside.ErrMalformed) {
				return nil, fmt.Errorf("tampered image not rejected as malformed: %v", results[0].Err)
			}
			return results[1], results[1].Err
		}},
		// Fleet axis: the sweep harness must be a transparent carrier
		// too — same result through the tree walker, with the
		// differential scanner contained (every scan-resolved syscall
		// inside the resolver-off over-approximation; the scanner reads
		// dead decoy code the resolver legitimately prunes from the
		// identified set) — on both image frontends, so an mmap-vs-read
		// difference anywhere in the pipeline shows up as leg drift.
		leg{"sweep", o.sweepRun(c.Seed, binPath, false, offHas)},
		leg{"sweep-nommap", o.sweepRun(c.Seed, binPath, true, offHas)},
		// Service axis: the HTTP frontend must be a transparent carrier.
		// The leg uploads the image through a real (in-process) server
		// and requires the response body to be byte-identical to the
		// canonical rendering of a direct library analysis — any
		// divergence is serve-side state leaking into results.
		leg{"serve", func() (*bside.Analysis, error) {
			img, err := os.ReadFile(binPath)
			if err != nil {
				return nil, err
			}
			a := analyzer(1, "")
			direct, err := a.AnalyzeBytes(img)
			if err != nil {
				return nil, err
			}
			ts := httptest.NewServer(serve.New(serve.Config{Backend: a}).Handler())
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/analyze", "application/octet-stream", bytes.NewReader(img))
			if err != nil {
				return nil, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("serve: status %d: %s", resp.StatusCode, body)
			}
			if want := serve.Render(direct); !bytes.Equal(body, want) {
				return nil, fmt.Errorf("serve: response drifted from direct analysis: %s vs %s", body, want)
			}
			return direct, nil
		}},
	)

	var baseRaw []byte
	var baseLeg string
	var first *bside.Record
	v.Invariant = true
	for _, l := range legs {
		res, err := l.run()
		if err != nil {
			v.Violations = append(v.Violations, fmt.Sprintf("%s: analysis failed: %v", l.name, err))
			v.Invariant = false
			continue
		}
		rec := o.recordOf(l.name, res)
		raw, _ := json.Marshal(rec) // struct marshaling cannot fail
		if baseRaw == nil {
			// The baseline is the first leg that *succeeded* — name it
			// accurately in drift reports.
			baseRaw, baseLeg, first = raw, l.name, rec
			continue
		}
		if string(raw) != string(baseRaw) {
			v.Invariant = false
			v.Violations = append(v.Violations, fmt.Sprintf(
				"%s: result drifted from %s: %s vs %s", l.name, baseLeg, raw, baseRaw))
		}
	}
	if first == nil {
		v.Err = "no analysis leg succeeded"
		return v
	}
	v.Identified = first.Syscalls
	v.FailOpen = first.FailOpen
	v.Wrappers = first.Wrappers

	// Soundness: truth ⊆ identified, unless the analysis honestly
	// failed open (the effective set is then the full table).
	v.Sound = true
	if !first.FailOpen {
		have := make(map[uint64]bool, len(first.Syscalls))
		for _, n := range first.Syscalls {
			have[n] = true
		}
		for _, n := range v.Truth {
			if !have[n] {
				v.Sound = false
				v.Violations = append(v.Violations, fmt.Sprintf(
					"soundness: syscall %d observed at runtime but not identified", n))
			}
		}
	}

	// The resolver-off reference must be sound on its own (the layered
	// resolver is not allowed to paper over a regression in the base
	// analysis), and the resolver must be shrink-only: anything
	// identified with it on must also be identified with it off.
	if offRec != nil {
		if !offRec.FailOpen {
			for _, n := range v.Truth {
				if !offHas(n) {
					v.Sound = false
					v.Violations = append(v.Violations, fmt.Sprintf(
						"resolver-off soundness: syscall %d observed at runtime but not identified", n))
				}
			}
			if !first.FailOpen {
				for _, n := range first.Syscalls {
					if !offHas(n) {
						v.Sound = false
						v.Violations = append(v.Violations, fmt.Sprintf(
							"shrink-only: syscall %d identified with the resolver on but not off", n))
					}
				}
				v.Precision = &Precision{
					TruthCount:       len(v.Truth),
					IdentifiedCount:  len(first.Syscalls),
					ResolverOffCount: len(offRec.Syscalls),
					Shrink:           len(offRec.Syscalls) - len(first.Syscalls),
					Excess:           len(first.Syscalls) - len(v.Truth),
				}
			}
		}
	}

	o.checkBaselines(v, bin)
	return v
}

// sweepRun builds one sweep invariance leg: the case's binary alone in
// a scratch tree, swept with the differential scanner on. The leg
// fails on any per-binary failure, on a scanner value escaping the
// resolver-off over-approximation (offHas), and (via the caller's
// record comparison) on any result drift against the
// direct-analysis legs. Scanner values inside offHas but outside the
// resolver-on set are expected: the linear scan reads address-taken
// dead code the resolver proved unreachable.
func (o *Oracle) sweepRun(seed int64, binPath string, noMmap bool, offHas func(uint64) bool) func() (*bside.Analysis, error) {
	return func() (*bside.Analysis, error) {
		frontend := "mmap"
		if noMmap {
			frontend = "nommap"
		}
		treeDir := filepath.Join(o.opts.Dir, fmt.Sprintf("sweep-%d-%s", seed, frontend))
		if err := os.MkdirAll(treeDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(treeDir)
		img, err := os.ReadFile(binPath)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(treeDir, "bin"), img, 0o755); err != nil {
			return nil, err
		}

		var res *sweep.Result
		sum, err := sweep.Run(context.Background(), treeDir, sweep.Options{
			Analyzer: bside.NewAnalyzer(bside.Options{
				LibraryDir:   o.opts.Universe.Dir,
				IntraWorkers: 1,
				DisableMmap:  noMmap,
			}),
			Jobs:     1,
			Diff:     true,
			OnResult: func(r *sweep.Result) { res = r },
		})
		if err != nil {
			return nil, err
		}
		if res != nil && res.Error != "" {
			return nil, fmt.Errorf("sweep: %s failed in phase %s: %s", res.Path, res.Phase, res.Error)
		}
		if sum.Analyzed != 1 || res == nil || res.Analysis == nil {
			return nil, fmt.Errorf("sweep: analyzed=%d failed=%d phases=%v", sum.Analyzed, sum.Failed, sum.FailurePhases)
		}
		if sum.ScanDisagreements != 0 {
			for _, n := range res.Diff.ScanOnly {
				if !offHas(n) {
					return nil, fmt.Errorf("sweep: scan-resolved syscall %d outside both the identified set %v and the resolver-off over-approximation",
						n, res.Analysis.Syscalls)
				}
			}
		}
		return res.Analysis, nil
	}
}

// checkBaselines asserts the reimplemented competitors fail exactly in
// their documented modes — and only there. Generated profiles carry no
// engineered failure classes, so budget exhaustion is not excused.
func (o *Oracle) checkBaselines(v *Verdict, bin *elff.Binary) {
	v.BaselinesOK = true
	fault := func(format string, args ...any) {
		v.BaselinesOK = false
		v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
	}

	_, chestErr := baseline.ChestnutWithBudget(bin, eval.BaselineCFGBudget)
	_, sysErr := baseline.SysFilterWithBudget(bin, eval.BaselineCFGBudget)

	if bin.Kind == elff.KindStatic {
		// Documented mode: both loaders reject non-PIC executables.
		if !errors.Is(chestErr, baseline.ErrStaticUnsupported) {
			fault("baseline: chestnut on static image: want ErrStaticUnsupported, got %v", chestErr)
		}
		if !errors.Is(sysErr, baseline.ErrStaticUnsupported) {
			fault("baseline: sysfilter on static image: want ErrStaticUnsupported, got %v", sysErr)
		}
		return
	}
	if chestErr != nil {
		fault("baseline: chestnut failed outside its documented modes: %v", chestErr)
	}
	if !bin.HasUnwind {
		// Documented mode: SysFilter needs unwind metadata for function
		// boundaries.
		if !errors.Is(sysErr, baseline.ErrNoUnwind) {
			fault("baseline: sysfilter without unwind info: want ErrNoUnwind, got %v", sysErr)
		}
	} else if sysErr != nil {
		fault("baseline: sysfilter failed outside its documented modes: %v", sysErr)
	}
}

// recordOf is one leg's rendering: the analysis record, after Tamper
// (on a copy) when the harness tests itself. Timings and cache
// provenance are not in the record: they may vary across legs; nothing
// else may.
func (o *Oracle) recordOf(legName string, res *bside.Analysis) *bside.Record {
	if o.opts.Tamper != nil {
		tampered := *res
		tampered.Syscalls = o.opts.Tamper(legName, append([]uint64(nil), res.Syscalls...))
		res = &tampered
	}
	return res.Record()
}

func kindString(p corpus.Profile) string {
	if p.StaticPIE {
		return "static-pie"
	}
	switch p.Kind {
	case elff.KindStatic:
		return "static"
	case elff.KindDynamic:
		return "dynamic"
	default:
		return p.Kind.String()
	}
}

func sortedSet(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
