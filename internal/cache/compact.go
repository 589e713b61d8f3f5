package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CompactStats describes one Compact run.
type CompactStats struct {
	// Packed is the entry count of the new pack.
	Packed int `json:"packed"`
	// FromLoose and FromPacks split Packed by origin: loose JSON
	// envelopes absorbed, and entries carried over from superseded
	// packs.
	FromLoose int `json:"from_loose"`
	FromPacks int `json:"from_packs"`
	// SkippedLoose counts loose files left in place: unreadable,
	// failing envelope validation (including a version other than the
	// current one), or keyed by something that is not a hex SHA-256
	// (packs index raw 32-byte keys).
	SkippedLoose int `json:"skipped_loose"`
	// PrunedLoose and PrunedPacks count files deleted after the new
	// pack was installed.
	PrunedLoose int `json:"pruned_loose"`
	PrunedPacks int `json:"pruned_packs"`
	// PackPath is the new pack file ("" when there was nothing to
	// pack), PackBytes its size.
	PackPath  string `json:"pack_path,omitempty"`
	PackBytes int64  `json:"pack_bytes"`
}

// GCStats describes one GC run.
type GCStats struct {
	// PrunedLoose counts loose files deleted because an open pack holds
	// the identical (kind, key, conf) entry.
	PrunedLoose int `json:"pruned_loose"`
	// KeptLoose counts loose files retained (no pack entry, or newer
	// conf than the packed one).
	KeptLoose int `json:"kept_loose"`
}

// packsDir is where a store's pack files live.
func (s *Store) packsDir() string { return filepath.Join(s.dir, packDirName) }

// discoverPacks opens every pack under <dir>/packs/, newest name last
// (names are content hashes, so order only matters for determinism).
// Invalid packs are skipped: corruption is never fatal, the loose tier
// still answers.
func (s *Store) discoverPacks() {
	entries, err := os.ReadDir(s.packsDir())
	if err != nil {
		return
	}
	var packs []*pack
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), packExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		p, err := openPack(filepath.Join(s.packsDir(), name))
		if err != nil {
			continue
		}
		packs = append(packs, p)
	}
	if len(packs) > 0 {
		s.packs.Store(&packs)
	}
}

// AttachPack opens one pack file (anywhere on disk — it does not have
// to live under the store's directory) and adds it to the probe set.
// This is the Options.PackPath hook: a fleet can build one pack
// centrally and point every node's analyzer at it read-only.
//
// A pack whose body checksum matches one already in the set (typically
// the file Open found under the store's own packs/ directory) is not
// added twice: its new mapping is closed and AttachPack returns nil.
func (s *Store) AttachPack(path string) error {
	p, err := openPack(path)
	if err != nil {
		return err
	}
	for {
		old := s.packs.Load()
		var next []*pack
		if old != nil {
			for _, q := range *old {
				if bytes.Equal(q.checksum(), p.checksum()) {
					// A read-only mapping nothing probes yet: a failed
					// unmap leaves the probe set as correct as a good one.
					_ = p.img.Close()
					return nil
				}
			}
			next = append(next, *old...)
		}
		next = append(next, p)
		if s.packs.CompareAndSwap(old, &next) {
			return nil
		}
	}
}

// dropPack removes one pack from the probe set (its backing file
// vanished). The mapping is intentionally not unmapped — concurrent
// probes may hold the old snapshot; see the packs field doc.
func (s *Store) dropPack(victim *pack) {
	for {
		old := s.packs.Load()
		if old == nil {
			return
		}
		next := make([]*pack, 0, len(*old))
		for _, p := range *old {
			if p != victim {
				next = append(next, p)
			}
		}
		if len(next) == len(*old) {
			return
		}
		if s.packs.CompareAndSwap(old, &next) {
			return
		}
	}
}

// looseEntry is one validated loose file headed into a compaction.
type looseEntry struct {
	ent  packEntry
	path string
}

// collectLoose walks the loose tier and returns every entry that can
// enter a pack, plus the count of files it had to leave in place. It
// removes stale temp files from each shard it lists.
// Entries are validated exactly as Load would (envelope version, sha
// field against the file name) — a file Load would reject must not be
// laundered into a pack where it would start being served.
func (s *Store) collectLoose() (loose []looseEntry, skipped int, err error) {
	kinds, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("cache: %w", err)
	}
	for _, kd := range kinds {
		if !kd.IsDir() || kd.Name() == packDirName {
			continue
		}
		kind := kd.Name()
		shards, err := os.ReadDir(filepath.Join(s.dir, kind))
		if err != nil {
			continue
		}
		for _, sd := range shards {
			if !sd.IsDir() {
				continue
			}
			shardDir := filepath.Join(s.dir, kind, sd.Name())
			files, err := os.ReadDir(shardDir)
			if err != nil {
				continue
			}
			removeStaleTemps(shardDir, files)
			for _, f := range files {
				name := f.Name()
				if !f.Type().IsRegular() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
					continue
				}
				key := strings.TrimSuffix(name, ".json")
				e := packEntry{kind: kind}
				if !decodeHexKey(key, &e.key) {
					skipped++
					continue
				}
				path := filepath.Join(shardDir, name)
				data, err := os.ReadFile(path)
				if err != nil {
					skipped++
					continue
				}
				var env envelope
				if err := json.Unmarshal(data, &env); err != nil ||
					env.SHA256 != key || env.Version != formatVersion {
					skipped++
					continue
				}
				e.conf = env.Conf
				e.payload = env.Payload
				loose = append(loose, looseEntry{ent: e, path: path})
			}
		}
	}
	return loose, skipped, nil
}

// Compact folds the loose tier and any currently open packs into one
// new pack file, installs it atomically in the probe set, and then
// prunes what it absorbed: the loose files and the superseded pack
// files. Readers are never caught between tiers — until the swap the
// old tiers answer, after it the new pack does, and a probe holding
// the old pack snapshot keeps a valid (deleted-but-mapped) view until
// its next probe.
//
// Concurrent Stores are safe but may race the prune: an entry
// re-written between the walk and the prune can lose its loose file.
// That is a cache losing one entry — the next Load recomputes and
// re-stores; never unsound.
func (s *Store) Compact() (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var st CompactStats

	loose, skipped, err := s.collectLoose()
	if err != nil {
		return st, err
	}
	st.SkippedLoose = skipped
	seen := make(map[string]bool, len(loose))
	entries := make([]packEntry, 0, len(loose))
	for _, le := range loose {
		entries = append(entries, le.ent)
		seen[le.ent.kind+"\x00"+string(le.ent.key[:])+"\x00"+le.ent.conf] = true
	}
	st.FromLoose = len(loose)

	// Carry over entries from the packs being superseded, loose copies
	// winning (they are content-identical; the loose one is at worst
	// fresher).
	var oldPacks []*pack
	if ps := s.packs.Load(); ps != nil {
		oldPacks = *ps
	}
	for _, p := range oldPacks {
		p.entries(func(kind, key, conf string, payload []byte) {
			var e packEntry
			if !decodeHexKey(key, &e.key) {
				return
			}
			if seen[kind+"\x00"+string(e.key[:])+"\x00"+conf] {
				return
			}
			e.kind, e.conf, e.payload = kind, conf, payload
			entries = append(entries, e)
			st.FromPacks++
		})
	}
	if len(entries) == 0 {
		return st, nil
	}

	buf, err := buildPack(entries)
	if err != nil {
		return st, err
	}
	// buildPack dedups exact (kind, key, conf) repeats. The name is
	// content-addressed: the body checksum the header already carries,
	// so identical content compacts to the identical file.
	path := filepath.Join(s.packsDir(), fmt.Sprintf("pack-%x%s", buf[48:60], packExt))
	if err := installFile(path, buf); err != nil {
		return st, fmt.Errorf("cache: write pack: %w", err)
	}
	np, err := openPack(path)
	if err != nil {
		// The pack we just wrote does not validate: something is badly
		// wrong (disk?); leave the loose tier untouched.
		_ = os.Remove(path)
		return st, err
	}
	next := []*pack{np}
	s.packs.Store(&next)
	st.Packed = np.count
	st.PackPath = path
	st.PackBytes = int64(len(buf))

	// Prune what the new pack absorbed. Failures here are harmless
	// (the loose copy just survives alongside the pack).
	for _, le := range loose {
		if os.Remove(le.path) == nil {
			st.PrunedLoose++
		}
	}
	for _, p := range oldPacks {
		if p.path != path && os.Remove(p.path) == nil {
			st.PrunedPacks++
		}
	}
	return st, nil
}

// GC prunes loose files that an open pack already serves: for every
// valid loose entry whose exact (kind, key, conf) is packed, the loose
// file is redundant (entries are content-addressed — same key and
// fingerprint, same payload). Loose entries the packs do not cover are
// kept. It also removes the stale temp files crashed writers
// abandoned: in the loose shards, as Compact does, and in the packs
// directory.
func (s *Store) GC() (GCStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var st GCStats
	var packs []*pack
	if ps := s.packs.Load(); ps != nil {
		packs = *ps
	}
	loose, skipped, err := s.collectLoose()
	if err != nil {
		return st, err
	}
	st.KeptLoose = skipped
	for _, le := range loose {
		key := fmt.Sprintf("%x", le.ent.key)
		packed := false
		for _, p := range packs {
			if _, _, ok := p.probe(le.ent.kind, key, le.ent.conf, false); ok {
				packed = true
				break
			}
		}
		if packed && os.Remove(le.path) == nil {
			st.PrunedLoose++
		} else {
			st.KeptLoose++
		}
	}
	if files, err := os.ReadDir(s.packsDir()); err == nil {
		removeStaleTemps(s.packsDir(), files)
	}
	return st, nil
}
