// Package cache implements the content-addressed store behind batch
// analysis: the once-per-library artifacts of the paper's §4.5
// (shared interfaces) and whole-program identification results are
// persisted across processes, keyed by the SHA-256 of the ELF image
// they were derived from, so a fleet-wide analysis run only ever pays
// for each distinct binary once.
//
// The store is two-tiered. The durable tier is a directory of JSON
// envelopes:
//
//	<dir>/<kind>/<key[:2]>/<key>.json
//
// where kind partitions entry types ("interface", "program",
// "undecided") and key is the lowercase hex SHA-256 of the
// source image (the store treats keys as opaque path-safe strings;
// elff.Read is the one place the hash is computed). Every file is a
// compact JSON envelope:
//
//	{"version":2,"sha256":"<key>","conf":"<fingerprint>","payload":{...}}
//
// The payload is the encoding/json form of the caller's value in every
// tier; version 2 is the only envelope version read. The envelope
// makes the store self-validating: any other version, a sha256 field
// that disagrees with the file's name (a moved or hand-edited entry),
// a configuration fingerprint mismatch (different analysis settings,
// or a dependency whose image hash changed), or any decode error is
// treated as a miss and the entry is re-computed — corruption is never
// fatal. Writes go through a temp file plus rename (installFile) so
// concurrent writers of the same entry cannot tear each other's files;
// Compact removes the temps a crashed writer abandons.
//
// Between the memory tier and the loose files sits the optional pack
// tier (see pack.go): Compact folds the loose entries into one
// immutable, content-addressed pack file under <dir>/packs/ that later
// processes memory-map read-only and probe by binary search — a warm
// hit costs a hash probe into a shared mapping and one payload decode
// instead of an open() plus two JSON decodes. Packs are discovered
// automatically by Open, validated end-to-end by checksum (a truncated
// or bit-flipped pack is ignored, never served), and consulted after
// the memory tier and before the loose files. Writes always land loose;
// a pack answering first is still correct because the same (kind, key,
// conf) names content-identical payloads in every tier, and a probe
// under a new conf misses the pack and falls through to the loose entry.
//
// In front of both durable tiers sits a process-wide memory tier
// holding *decoded* values: a payload validated and decoded once is
// kept as the typed Go value (keyed by directory, kind and key), so
// repeated loads of the same entry in one process — a resident
// service's hash replays, analyzers recreated per request — skip the
// file read and both decodes; a memory hit is a type assertion, not an
// Unmarshal. A sweep's fresh process reads every entry once, so only a
// resident process ever hits it. One
// stat per hit confirms the durable backing (loose file or pack) still
// exists, so deleting a cache directory makes the process recompute
// and repopulate rather than serve ghosts. The tier is read-through:
// only disk-validated payloads enter it, entries are content-addressed
// (the same key and fingerprint always name the same payload), and a
// Store through any handle drops the stale copy, so it can never serve
// a result the durable tier would not. Because hits hand every caller
// the same decoded value, callers must treat loaded results as
// immutable — the analyzer's read paths already do.
// Store.DisableMemoryTier opts one handle out, for tests that check or
// price the durable tiers alone.
//
// The tier is one LRU under one mutex, bounded by both entry count and
// total payload bytes (SetMemoryTierLimits); inserting past either cap
// evicts from the cold end. A resident service can therefore hold a
// process open for months without the tier growing with the fleet's
// distinct-binary population; eviction only ever costs the next
// identical load a disk read, never a recompute of anything that is
// still on disk. Eviction traffic is counted (Stats.MemoryEvictions)
// so an operator can see when the tier is sized below the working set.
package cache

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bside/internal/faults"
)

// formatVersion is the envelope version the writer produces and the
// only one Load accepts; anything else (including the pretty-printed
// version 1 of earlier releases) is a miss the caller recomputes and
// overwrites.
const formatVersion = 2

// Default memory-tier bounds. Entries are content-addressed, so
// evicting one never changes results — only the speed of the next
// identical load (a disk re-read instead of a memory hit).
const (
	defaultMemEntries = 1 << 16
	defaultMemBytes   = 256 << 20
)

// memTier is the process-wide memory tier: one LRU over full entry
// keys (dir\x00kind\x00key) under one mutex. It is shared by every
// Store handle so a per-batch analyzer recreated over the same
// directory keeps its warm entries.
var memTier = &lruTier{
	entries:    make(map[string]*list.Element),
	order:      list.New(),
	maxEntries: defaultMemEntries,
	maxBytes:   defaultMemBytes,
}

// memEntry is one resident memory-tier entry: the decoded value (the T
// a typed Load decoded — immutable by contract), the conf fingerprint
// it was stored under, the durable path backing it (statted on every
// hit so a deleted cache never ghost-serves), and the durable payload
// size the byte budget charges.
type memEntry struct {
	key  string
	conf string
	src  string
	size int
	val  any
}

// lruTier is the size-bounded LRU behind the memory tier: a map for
// lookup, an intrusive recency list for eviction order, and byte
// accounting over payload sizes.
type lruTier struct {
	mu         sync.Mutex
	entries    map[string]*list.Element // -> *memEntry elements of order
	order      *list.List               // front = most recently used
	bytes      int64
	maxEntries int
	maxBytes   int64
	evictions  atomic.Uint64
}

// get returns the entry for key, marking it most recently used.
func (t *lruTier) get(key string) (memEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[key]
	if !ok {
		return memEntry{}, false
	}
	t.order.MoveToFront(el)
	return *el.Value.(*memEntry), true
}

// put inserts or replaces the entry for ent.key and evicts from the
// cold end until both bounds hold again.
func (t *lruTier) put(ent memEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[ent.key]; ok {
		old := el.Value.(*memEntry)
		t.bytes += int64(ent.size) - int64(old.size)
		*old = ent
		t.order.MoveToFront(el)
	} else {
		t.entries[ent.key] = t.order.PushFront(&ent)
		t.bytes += int64(ent.size)
	}
	t.evictLocked()
}

// del drops the entry for key if present.
func (t *lruTier) del(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		t.removeLocked(el)
	}
}

func (t *lruTier) removeLocked(el *list.Element) {
	ent := el.Value.(*memEntry)
	t.order.Remove(el)
	delete(t.entries, ent.key)
	t.bytes -= int64(ent.size)
}

// evictLocked drops entries from the cold end until both bounds hold.
func (t *lruTier) evictLocked() {
	for t.order.Len() > t.maxEntries || t.bytes > t.maxBytes {
		t.removeLocked(t.order.Back())
		t.evictions.Add(1)
	}
}

// snapshot returns the tier's gauges: entry count and payload bytes.
func (t *lruTier) snapshot() (entries int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len(), t.bytes
}

// SetMemoryTierLimits bounds the process-wide memory tier by entry
// count and total payload bytes (non-positive values keep the current
// bound), evicting at once if the tier is now over, and returns the
// previous bounds. A resident service sizes the tier to its memory
// budget here; eviction is recorded in every store's
// Stats.MemoryEvictions.
func SetMemoryTierLimits(maxEntries int, maxBytes int64) (prevEntries int, prevBytes int64) {
	memTier.mu.Lock()
	defer memTier.mu.Unlock()
	prevEntries, prevBytes = memTier.maxEntries, memTier.maxBytes
	if maxEntries > 0 {
		memTier.maxEntries = maxEntries
	}
	if maxBytes > 0 {
		memTier.maxBytes = maxBytes
	}
	memTier.evictLocked()
	return prevEntries, prevBytes
}

// Store is a content-addressed cache directory plus its slice of the
// process-wide memory tier. All methods are safe for concurrent use.
type Store struct {
	dir       string
	memPrefix string
	noMem     atomic.Bool

	// packs is the current immutable set of open pack files, consulted
	// after the memory tier and before the loose files. Readers load a
	// snapshot and never lock; Compact and AttachPack swap in a new
	// slice atomically. Superseded packs are dropped from the set but
	// their mappings are deliberately not unmapped — a concurrent probe
	// may still hold the old snapshot, and a handful of leaked mappings
	// per compaction (backed by deleted files the kernel reclaims
	// lazily) is far cheaper than reference-counting every probe.
	packs atomic.Pointer[[]*pack]

	// compactMu serializes Compact runs; probes and stores never take
	// it.
	compactMu sync.Mutex

	hits        atomic.Uint64
	memoryHits  atomic.Uint64
	packHits    atomic.Uint64
	misses      atomic.Uint64
	stores      atomic.Uint64
	storedBytes atomic.Uint64
	ioErrors    atomic.Uint64
}

// Stats is a point-in-time snapshot of cache traffic.
type Stats struct {
	// Hits counts Load calls satisfied by either tier.
	Hits uint64
	// MemoryHits counts the subset of Hits served from the in-process
	// memory tier without touching the disk.
	MemoryHits uint64
	// PackHits counts the subset of Hits served from a memory-mapped
	// pack file — a binary-search probe into the shared mapping plus one
	// payload decode, instead of an open() plus envelope decode.
	PackHits uint64
	// Packs, PackEntries and PackBytesMapped are point-in-time gauges
	// of the open pack set: file count, total index entries, and the
	// bytes currently memory-mapped (zero where the platform fell back
	// to heap reads).
	Packs           int
	PackEntries     int
	PackBytesMapped int64
	// Misses counts Load calls that found no usable entry.
	Misses uint64
	// Stores counts entries written.
	Stores uint64
	// StoredBytes counts the envelope bytes written to disk — the
	// footprint knob the compact envelope shrinks.
	StoredBytes uint64
	// MemoryEvictions counts entries pushed out of the memory tier by
	// its LRU bounds. Process-wide (the tier is shared by every Store in
	// the process), monotonic. A resident service whose eviction rate
	// tracks its hit rate has a tier sized below its working set.
	MemoryEvictions uint64
	// MemoryEntries and MemoryBytes are point-in-time gauges of the
	// process-wide memory tier's population and payload footprint.
	MemoryEntries int
	MemoryBytes   int64
	// IOErrors counts durable-tier operations that failed for reasons
	// other than "entry absent": unreadable loose files on Load, any
	// failed Store. Analysis proceeds either way (a failed read is a
	// miss, a failed write is dropped), but a climbing count means the
	// cache directory itself is unhealthy — the signal the serve tier's
	// degraded-health check consumes.
	IOErrors uint64
}

// Open returns a store rooted at dir, creating it if needed. Pack
// files under <dir>/packs/ are discovered and mapped here; a pack that
// fails validation (truncated, corrupted) is skipped silently — the
// loose tier still answers, corruption is never fatal.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Store{dir: dir, memPrefix: filepath.Clean(dir) + "\x00"}
	s.discoverPacks()
	return s, nil
}

// DisableMemoryTier makes this handle bypass the process-wide memory
// tier: every Load goes to disk and nothing is promoted. Results are
// byte-identical either way; the switch exists for tests and
// benchmarks of the durable tiers. Returns the store for chaining.
func (s *Store) DisableMemoryTier() *Store {
	s.noMem.Store(true)
	return s
}

// Stats returns a snapshot of the traffic counters. The memory-tier
// fields (MemoryEvictions, MemoryEntries, MemoryBytes) describe the
// process-wide tier, not this store's slice of it.
func (s *Store) Stats() Stats {
	entries, bytes := memTier.snapshot()
	st := Stats{
		Hits:            s.hits.Load(),
		MemoryHits:      s.memoryHits.Load(),
		PackHits:        s.packHits.Load(),
		Misses:          s.misses.Load(),
		Stores:          s.stores.Load(),
		StoredBytes:     s.storedBytes.Load(),
		IOErrors:        s.ioErrors.Load(),
		MemoryEvictions: memTier.evictions.Load(),
		MemoryEntries:   entries,
		MemoryBytes:     bytes,
	}
	if ps := s.packs.Load(); ps != nil {
		st.Packs = len(*ps)
		for _, p := range *ps {
			st.PackEntries += p.count
			if p.mapped {
				st.PackBytesMapped += int64(len(p.data))
			}
		}
	}
	return st
}

type envelope struct {
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Conf    string          `json:"conf,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

func (s *Store) path(kind, key string) string {
	return filepath.Join(s.dir, kind, key[:2], key+".json")
}

func (s *Store) memKey(kind, key string) string {
	return s.memPrefix + kind + "\x00" + key
}

// Load returns the entry for (kind, key) decoded as a T and reports
// whether a usable entry existed. conf must match the fingerprint the
// entry was stored under; any mismatch, decode failure, or version skew
// is a miss. A memory-tier hit is a type assertion on the already
// decoded value — no file read, no envelope validation, no Unmarshal;
// the caller must treat the result (and any slices it holds) as
// immutable.
func Load[T any](s *Store, kind, key, conf string) (T, bool) {
	v, _, ok := load[T](s, kind, key, conf, false)
	return v, ok
}

// LoadAny returns the entry for (kind, key) whatever fingerprint it was
// stored under, together with that fingerprint. This is the probe
// behind hash-only lookups (a resident service's `?hash=` path), where
// the caller holds no DT_NEEDED list to derive the fingerprint from;
// the caller owns validating the returned fingerprint — serving an
// entry without checking it would silently cross analyzer
// configurations.
//
// The key arrives from outside the process, so anything but a SHA-256
// in lowercase hex is a miss before any tier is probed: a key such as
// "../x" must never name a file outside the store's directory.
func LoadAny[T any](s *Store, kind, key string) (T, string, bool) {
	var kb [32]byte
	if !decodeHexKey(key, &kb) {
		s.misses.Add(1)
		var zero T
		return zero, "", false
	}
	return load[T](s, kind, key, "", true)
}

// load is the shared probe, in tier order: the memory tier (a decoded
// value plus one stat confirming its durable backing still exists),
// then the mapped packs (binary-search probe, payload decoded straight
// out of the mapping), then the loose JSON envelope — promoting into
// the memory tier on any durable hit. anyConf accepts whatever
// fingerprint is stored (the LoadAny path); otherwise conf must match
// exactly. A resident value of another type than T falls through to
// the durable tiers, whose decode then replaces it.
func load[T any](s *Store, kind, key, conf string, anyConf bool) (T, string, bool) {
	var zero T
	if len(key) < 2 {
		s.misses.Add(1)
		return zero, "", false
	}
	if err := faults.Fire(faults.CacheRead, kind, "/", key); err != nil {
		// Injected disk failure: counted and served as a miss, exactly
		// like the real unreadable-file path below.
		s.ioErrors.Add(1)
		s.misses.Add(1)
		return zero, "", false
	}
	useMem := !s.noMem.Load()
	mk := ""
	if useMem {
		mk = s.memKey(kind, key)
		if ent, ok := memTier.get(mk); ok {
			if anyConf || ent.conf == conf {
				// One stat confirms the durable tier (the loose file or
				// the pack this value came from) still backs the memory
				// copy — a deleted cache directory must make this
				// process recompute and repopulate the disk, not serve
				// ghosts — while skipping the read and both decodes.
				if _, err := os.Stat(ent.src); err == nil {
					if v, ok := ent.val.(T); ok {
						s.memoryHits.Add(1)
						s.hits.Add(1)
						return v, ent.conf, true
					}
				} else {
					memTier.del(mk)
				}
			}
			// A fingerprint mismatch falls through to disk: the file
			// may hold a fresher entry stored under the new conf.
		}
	}
	ps := s.packs.Load()
	if v, gotConf, ok := loadPacked[T](s, ps, kind, key, conf, anyConf, mk); ok {
		return v, gotConf, true
	}
	path := s.path(kind, key)
	data, err := os.ReadFile(path)
	if err != nil {
		// Absence is the normal cold-cache miss; anything else
		// (permissions, EIO, a file that vanished mid-read) is the disk
		// misbehaving and feeds the degraded-health signal.
		if !errors.Is(err, fs.ErrNotExist) {
			s.ioErrors.Add(1)
		} else if cur := s.packs.Load(); cur != ps {
			// A Compact installed a new pack and pruned the loose file
			// (and maybe the snapshot's pack) after the snapshot above
			// was taken. It swaps before it prunes, so the entry is in
			// the current set.
			if v, gotConf, ok := loadPacked[T](s, cur, kind, key, conf, anyConf, mk); ok {
				return v, gotConf, true
			}
		}
		s.misses.Add(1)
		return zero, "", false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		// Corrupt or truncated: ignore, the caller re-analyzes.
		s.misses.Add(1)
		return zero, "", false
	}
	if env.SHA256 != key {
		// The file does not describe the image it is filed under:
		// busted. No need to remove it — a removal here could race a
		// concurrent Store's rename and delete a freshly written valid
		// entry; the caller's re-analysis overwrites it instead.
		s.misses.Add(1)
		return zero, "", false
	}
	if env.Version != formatVersion || !(anyConf || env.Conf == conf) {
		s.misses.Add(1)
		return zero, "", false
	}
	var v T
	if err := json.Unmarshal(env.Payload, &v); err != nil {
		s.misses.Add(1)
		return zero, "", false
	}
	if useMem {
		memTier.put(memEntry{key: mk, conf: env.Conf, src: path, size: len(env.Payload), val: v})
	}
	s.hits.Add(1)
	return v, env.Conf, true
}

// loadPacked probes one snapshot of the pack set (nil is empty) and, on
// a hit, decodes the payload straight out of the mapping and promotes
// it into the memory tier when mk is set.
func loadPacked[T any](s *Store, ps *[]*pack, kind, key, conf string, anyConf bool, mk string) (T, string, bool) {
	var zero T
	if ps == nil {
		return zero, "", false
	}
	for _, p := range *ps {
		gotConf, payload, ok := p.probe(kind, key, conf, anyConf)
		if !ok {
			continue
		}
		// The same ghost rule as the memory tier: the pack file must
		// still exist on disk. A pack deleted under a live mapping
		// (cache wipe, gc from another process) stops serving and is
		// dropped from the set.
		if _, err := os.Stat(p.path); err != nil {
			s.dropPack(p)
			continue
		}
		var v T
		if json.Unmarshal(payload, &v) != nil {
			// Type mismatch or malformed payload: treat this pack as
			// silent and let the loose tier answer.
			continue
		}
		s.packHits.Add(1)
		s.hits.Add(1)
		if mk != "" {
			memTier.put(memEntry{key: mk, conf: gotConf, src: p.path, size: len(payload), val: v})
		}
		return v, gotConf, true
	}
	return zero, "", false
}

// Store writes the entry for (kind, key), replacing any previous one.
// Disk failures are counted in Stats.IOErrors on top of being returned
// — most callers drop store errors (the cache is best-effort), so the
// counter is how repeated write failures stay visible.
func (s *Store) Store(kind, key, conf string, payload any) error {
	if len(key) < 2 {
		return fmt.Errorf("cache: invalid key %q", key)
	}
	if err := faults.Fire(faults.CacheWrite, kind, "/", key); err != nil {
		s.ioErrors.Add(1)
		return fmt.Errorf("cache: write %s/%s: %w", kind, key, err)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("cache: marshal %s/%s: %w", kind, key, err)
	}
	data, err := json.Marshal(envelope{
		Version: formatVersion,
		SHA256:  key,
		Conf:    conf,
		Payload: raw,
	})
	if err != nil {
		return fmt.Errorf("cache: marshal envelope: %w", err)
	}
	if err := installFile(s.path(kind, key), data); err != nil {
		s.ioErrors.Add(1)
		return fmt.Errorf("cache: write %s/%s: %w", kind, key, err)
	}
	// Drop any memory copy: the tier is read-through, so the next Load
	// re-validates from disk and promotes the fresh payload.
	memTier.del(s.memKey(kind, key))
	s.stores.Add(1)
	s.storedBytes.Add(uint64(len(data)))
	return nil
}

// installFile writes data to a temp file next to path and renames it
// over path, so a reader sees the old file or the new one, never a torn
// write, and concurrent writers of one path cannot tear each other's
// files. The temp is removed on any failure; one a crash abandons is
// left for removeStaleTemps.
func installFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// staleTempAge is how old an abandoned temp file must be before it is
// removed: long enough that no live writer (create→rename is
// milliseconds) can be racing on it.
const staleTempAge = time.Hour

// removeStaleTemps deletes, from one listing of dir, the temp files
// crashed installs left behind (".<name>.tmp-*") once they are older
// than staleTempAge. Compact calls it on every directory it lists, so
// a long-lived store does not accumulate dead files.
func removeStaleTemps(dir string, files []fs.DirEntry) {
	for _, f := range files {
		name := f.Name()
		if !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp-") {
			continue
		}
		if info, err := f.Info(); err == nil && time.Since(info.ModTime()) >= staleTempAge {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}
