package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/emu"
)

// Inputs are generated from the run's seed by the repository's corpus
// synthesizer and written to disk; the program under test only ever
// sees those files (or their bytes, for uploads). Every input carries
// its emulator-observed ground truth, the independent oracle the
// checker holds results to.

// input is one generated binary.
type input struct {
	ID    string // path relative to its tree root, or a label
	Hash  string // hex SHA-256 of the image
	Truth []uint64
	Data  []byte // image bytes, kept only for uploads
}

// tree is a generated sweep target: the bsidegen shape (the six
// application stand-ins plus the Debian-shaped set) under Root, with
// the shared libraries in Libs, outside the tree.
type tree struct {
	Root, Libs string
	Inputs     map[string]*input // by ID
}

// genTree writes the tree for seed under dir. limit caps the number of
// Debian-shaped binaries (0 = all).
func genTree(seed int64, dir string, limit int) (*tree, error) {
	libs, err := corpus.NewLibrarySet()
	if err != nil {
		return nil, err
	}
	t := &tree{Root: filepath.Join(dir, "tree"), Libs: filepath.Join(dir, "libs"), Inputs: make(map[string]*input)}
	for _, d := range []string{filepath.Join(t.Root, "apps"), filepath.Join(t.Root, "debian"), t.Libs} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	for name, lib := range libs.Libs {
		if err := lib.WriteFile(filepath.Join(t.Libs, name)); err != nil {
			return nil, err
		}
	}
	debian := corpus.DebianProfiles(seed)
	if limit > 0 && limit < len(debian) {
		debian = debian[:limit]
	}
	var ids []string
	var profiles []corpus.Profile
	for _, p := range corpus.AppProfiles() {
		ids, profiles = append(ids, "apps/"+p.Name), append(profiles, p)
	}
	for _, p := range debian {
		ids, profiles = append(ids, "debian/"+p.Name), append(profiles, p)
	}
	built, err := buildAll(profiles, libs.Libs)
	if err != nil {
		return nil, err
	}
	for i, in := range built {
		in.ID = ids[i]
		if err := os.WriteFile(filepath.Join(t.Root, in.ID), in.Data, 0o755); err != nil {
			return nil, err
		}
		in.Data = nil
		t.Inputs[in.ID] = in
	}
	return t, nil
}

// genLarge writes n distinct large binaries — corpus.LargeBinaryProfile
// with seed-drawn per-binary seeds, so no two share the content the
// process-wide function memo keys by — under dir and returns them in
// analysis order.
func genLarge(seed int64, dir string, n int) ([]*input, []string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	profiles := make([]corpus.Profile, n)
	for i := range profiles {
		profiles[i] = corpus.LargeBinaryProfile()
		profiles[i].Seed = rng.Int63()
	}
	built, err := buildAll(profiles, nil)
	if err != nil {
		return nil, nil, err
	}
	paths := make([]string, n)
	for i, in := range built {
		in.ID = fmt.Sprintf("large-%03d", i)
		paths[i] = filepath.Join(dir, in.ID)
		if err := os.WriteFile(paths[i], in.Data, 0o755); err != nil {
			return nil, nil, err
		}
		in.Data = nil
	}
	return built, paths, nil
}

// genUploads builds n binaries the service has never seen: a seeded
// draw from the Debian-shaped trees of seeds seed+1 to seed+4, in an
// order that spreads each kind of binary (static or dynamic, and each
// engineered failure class) evenly along the sequence, so every stretch
// of the load carries its share of the expensive uploads instead of a
// chance cluster. They stay in memory as request bodies.
func genUploads(seed int64, n int) ([]*input, error) {
	libs, err := corpus.NewLibrarySet()
	if err != nil {
		return nil, err
	}
	type pick struct {
		id string
		p  corpus.Profile
	}
	var all []pick
	for k := int64(1); k <= 4; k++ {
		for _, p := range corpus.DebianProfiles(seed + k) {
			all = append(all, pick{fmt.Sprintf("upload/s%d/%s", k, p.Name), p})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	// The j-th of a kind's c members goes to position (j+½)/c.
	type kind struct {
		static bool
		class  corpus.FailureClass
	}
	count := make(map[kind]int)
	for _, a := range all {
		count[kind{a.p.Kind == elff.KindStatic, a.p.Class}]++
	}
	seen := make(map[kind]int)
	pos := make([]float64, len(all))
	for i, a := range all {
		k := kind{a.p.Kind == elff.KindStatic, a.p.Class}
		pos[i] = (float64(seen[k]) + 0.5) / float64(count[k])
		seen[k]++
	}
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return pos[order[i]] < pos[order[j]] })
	spread := make([]pick, len(all))
	for i, o := range order {
		spread[i] = all[o]
	}
	all = spread
	n = min(n, len(all))
	profiles := make([]corpus.Profile, n)
	for i := range profiles {
		profiles[i] = all[i].p
	}
	built, err := buildAll(profiles, libs.Libs)
	if err != nil {
		return nil, err
	}
	for i, in := range built {
		in.ID = all[i].id
	}
	return built, nil
}

// buildAll synthesizes every profile and runs it under the emulator
// for its ground truth, one worker per CPU.
func buildAll(profiles []corpus.Profile, libs map[string]*elff.Binary) ([]*input, error) {
	out := make([]*input, len(profiles))
	errs := make([]error, len(profiles))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = build(profiles[i], libs)
			}
		}()
	}
	for i := range profiles {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", profiles[i].Name, err)
		}
	}
	return out, nil
}

func build(p corpus.Profile, libs map[string]*elff.Binary) (*input, error) {
	bin, err := corpus.BuildProgram(p)
	if err != nil {
		return nil, err
	}
	data, err := elff.Write(bin.Spec())
	if err != nil {
		return nil, err
	}
	m, err := emu.NewProcess(bin, libs)
	if err != nil {
		return nil, err
	}
	if err := m.RunBudget(emu.Budget{}); err != nil {
		return nil, fmt.Errorf("ground truth: %w", err)
	}
	if !m.Exited {
		return nil, fmt.Errorf("ground truth: program did not exit")
	}
	truth := make([]uint64, 0, len(m.SyscallSet()))
	for n := range m.SyscallSet() {
		truth = append(truth, n)
	}
	sort.Slice(truth, func(i, j int) bool { return truth[i] < truth[j] })
	sum := sha256.Sum256(data)
	return &input{Hash: hex.EncodeToString(sum[:]), Truth: truth, Data: data}, nil
}
