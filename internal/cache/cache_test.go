package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

type payload struct {
	Name     string   `json:"name"`
	Syscalls []uint64 `json:"syscalls,omitempty"`
}

// loadPayload is Load[payload] in the shape these tests check: a hit
// overwrites *out, a miss leaves it alone.
func loadPayload(s *Store, kind, key, conf string, out *payload) bool {
	v, ok := Load[payload](s, kind, key, conf)
	if ok {
		*out = v
	}
	return ok
}

// testKey derives a content address the way elff.Read does: lowercase
// hex SHA-256 of the image bytes.
func testKey(t *testing.T, s string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-1")
	in := payload{Name: "libc.so", Syscalls: []uint64{0, 1, 60}}
	if err := s.Store("interface", key, "conf-a", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !loadPayload(s, "interface", key, "conf-a", &out) {
		t.Fatal("stored entry not loadable")
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Stores != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMissOnAbsentConfAndKind(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-2")
	var out payload
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("hit on empty store")
	}
	if err := s.Store("interface", key, "conf", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	// A different configuration fingerprint must not be served.
	if loadPayload(s, "interface", key, "other-conf", &out) {
		t.Fatal("hit across configurations")
	}
	// Kinds partition the namespace.
	if loadPayload(s, "program", key, "conf", &out) {
		t.Fatal("hit across kinds")
	}
	if st := s.Stats(); st.Misses != 3 {
		t.Fatalf("misses: %+v", st)
	}
}

func TestCorruptAndTruncatedEntriesIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-3")
	if err := s.Store("interface", key, "conf", payload{Name: "libm.so"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "interface", key[:2], key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated file: load must miss, not fail.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("truncated entry served")
	}

	// Garbage file: same.
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("corrupt entry served")
	}

	// The entry can be re-stored and served again.
	if err := s.Store("interface", key, "conf", payload{Name: "libm.so"}); err != nil {
		t.Fatal(err)
	}
	if !loadPayload(s, "interface", key, "conf", &out) || out.Name != "libm.so" {
		t.Fatalf("re-store failed: %+v", out)
	}
}

func TestHashMismatchBustsEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-4")
	if err := s.Store("interface", key, "conf", payload{Name: "libz.so"}); err != nil {
		t.Fatal(err)
	}
	// Tamper with the recorded hash: the file no longer describes the
	// image it is filed under.
	path := filepath.Join(dir, "interface", key[:2], key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), key, testKey(t, "other-image"), 1)
	if tampered == string(data) {
		t.Fatal("tampering had no effect")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("hash-mismatched entry served")
	}
	// The bust is permanent until a re-store overwrites the entry.
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("hash-mismatched entry served on retry")
	}
	if err := s.Store("interface", key, "conf", payload{Name: "libz.so"}); err != nil {
		t.Fatal(err)
	}
	if !loadPayload(s, "interface", key, "conf", &out) || out.Name != "libz.so" {
		t.Fatalf("re-store did not repair the busted entry: %+v", out)
	}
}

func TestVersionSkewIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-5")
	raw, _ := json.Marshal(payload{Name: "old"})
	env, _ := json.Marshal(envelope{Version: formatVersion + 1, SHA256: key, Conf: "conf", Payload: raw})
	path := filepath.Join(dir, "interface", key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("future-version entry served")
	}
}

func TestConcurrentStoreLoad(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-6")
	want := payload{Name: "libc.so", Syscalls: []uint64{1, 60}}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Store("interface", key, "conf", want); err != nil {
				t.Error(err)
			}
			var out payload
			if loadPayload(s, "interface", key, "conf", &out) && !reflect.DeepEqual(out, want) {
				t.Errorf("torn read: %+v", out)
			}
		}()
	}
	wg.Wait()
	var out payload
	if !loadPayload(s, "interface", key, "conf", &out) || !reflect.DeepEqual(out, want) {
		t.Fatalf("final state: %+v", out)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Fatal("directory under a file accepted")
	}
}

func TestShortKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store("interface", "", "conf", payload{}); err == nil {
		t.Fatal("empty key accepted")
	}
	var out payload
	if loadPayload(s, "interface", "x", "conf", &out) {
		t.Fatal("short key hit")
	}
}

func TestStaleTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-7")
	shard := filepath.Join(dir, "interface", key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	// An orphan from a crashed writer, long dead.
	stale := filepath.Join(shard, "."+key+".tmp-123")
	if err := os.WriteFile(stale, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	// A fresh orphan that could still belong to a live writer.
	fresh := filepath.Join(shard, "."+key+".tmp-456")
	if err := os.WriteFile(fresh, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A write leaves both alone: it never lists its shard.
	if err := s.Store("interface", key, "conf", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{stale, fresh} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("Store touched temp %s: %v", filepath.Base(p), err)
		}
	}
	// GC lists every loose shard and removes only the stale temp.
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file must survive the sweep")
	}
	var out payload
	if !loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("entry unusable after sweep")
	}
}

// --- two-tier store: compact envelope, legacy misses, memory tier ------

func TestCompactEnvelopeOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-compact")
	if err := s.Store("interface", key, "conf", payload{Name: "libc.so", Syscalls: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "interface", key[:2], key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(string(data), "\n ") {
		t.Fatalf("envelope not compact: %q", data)
	}
	if !strings.Contains(string(data), `"version":2`) {
		t.Fatalf("envelope not version-bumped: %q", data)
	}
	if st := s.Stats(); st.StoredBytes != uint64(len(data)) {
		t.Fatalf("StoredBytes = %d, file is %d bytes", st.StoredBytes, len(data))
	}
}

// TestLegacyEnvelopeIsMissAndRewritten: a version-1 envelope (the
// pretty-printed format of earlier releases) is a miss, Compact leaves
// it loose instead of packing it, and the caller's recompute-and-Store
// overwrites it as version 2.
func TestLegacyEnvelopeIsMissAndRewritten(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-legacy")
	want := payload{Name: "old-format", Syscalls: []uint64{0, 60}}
	raw, _ := json.Marshal(want)
	env, _ := json.MarshalIndent(envelope{Version: 1, SHA256: key, Conf: "conf", Payload: raw}, "", "  ")
	path := filepath.Join(dir, "interface", key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("v1 envelope was served")
	}
	if st := s.Stats(); st.Misses != 1 || st.IOErrors != 0 {
		t.Fatalf("v1 envelope must be a plain miss: %+v", st)
	}
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Packed != 0 || cs.SkippedLoose != 1 {
		t.Fatalf("v1 envelope must be skipped, not packed: %+v", cs)
	}
	if err := s.Store("interface", key, "conf", want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version":2`) {
		t.Fatalf("Store did not rewrite the entry as v2: %q", data)
	}
	if !loadPayload(s, "interface", key, "conf", &out) || !reflect.DeepEqual(out, want) {
		t.Fatalf("rewritten entry: %+v vs %+v", out, want)
	}
}

func TestMemoryTierServesPromotedEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-mem")
	want := payload{Name: "hot", Syscalls: []uint64{1}}
	if err := s.Store("interface", key, "conf", want); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("first load must hit disk")
	}
	// The first load promoted the payload: the second is a memory hit
	// (the file only gets a stat, never a read — corrupting it in
	// place must not matter while it exists).
	path := filepath.Join(dir, "interface", key[:2], key+".json")
	if err := os.WriteFile(path, []byte("unread garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = payload{}
	if !loadPayload(s, "interface", key, "conf", &out) || !reflect.DeepEqual(out, want) {
		t.Fatalf("memory tier did not serve: %+v", out)
	}
	st := s.Stats()
	if st.MemoryHits != 1 || st.Hits != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// A different fingerprint must not be served from memory.
	if loadPayload(s, "interface", key, "other-conf", &out) {
		t.Fatal("memory tier served across configurations")
	}

	// The tier is process-wide: a fresh handle on the same directory
	// sees the promoted entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out = payload{}
	if !loadPayload(s2, "interface", key, "conf", &out) || !reflect.DeepEqual(out, want) {
		t.Fatalf("fresh handle missed the shared memory tier: %+v", out)
	}

	// A handle with the tier disabled reads the (now corrupt) disk.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3.DisableMemoryTier()
	if loadPayload(s3, "interface", key, "conf", &out) {
		t.Fatal("DisableMemoryTier handle must not see memory entries")
	}
}

func TestMemoryTierDroppedWithDurableEntry(t *testing.T) {
	// Deleting the durable entry must make the process recompute and
	// repopulate the disk, not serve the memory copy forever: the
	// store-through-any-path protocol depends on misses being real.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-mem-drop")
	if err := s.Store("interface", key, "conf", payload{Name: "hot"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("load failed")
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("memory tier served an entry whose directory is gone")
	}
	// The miss dropped the memory copy; a re-store round-trips again.
	if err := s.Store("interface", key, "conf", payload{Name: "hot2"}); err != nil {
		t.Fatal(err)
	}
	if !loadPayload(s, "interface", key, "conf", &out) || out.Name != "hot2" {
		t.Fatalf("repopulated entry not served: %+v", out)
	}
}

func TestMemoryTierLRUEvictionBounds(t *testing.T) {
	// The tier is process-wide: drain leftovers from other tests (a
	// 1-byte budget evicts every real payload), then pin a capacity of
	// 2 entries. Restore the defaults afterwards.
	prevE, prevB := SetMemoryTierLimits(1, 1)
	SetMemoryTierLimits(2, 1<<20)
	defer SetMemoryTierLimits(prevE, prevB)

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = testKey(t, fmt.Sprintf("image-lru-%d", i))
	}
	for _, k := range keys {
		if err := s.Store("interface", k, "conf", payload{Name: k[:8]}); err != nil {
			t.Fatal(err)
		}
	}
	load := func(i int) {
		t.Helper()
		var out payload
		if !loadPayload(s, "interface", keys[i], "conf", &out) {
			t.Fatalf("load %d failed", i)
		}
	}
	memHits := func() uint64 { return s.Stats().MemoryHits }

	before := s.Stats()
	load(0)
	load(1)
	load(2) // evicts 0: capacity 2, order is now [2, 1]
	after := s.Stats()
	if after.MemoryEntries > 2 {
		t.Fatalf("entry bound not enforced: %d entries resident", after.MemoryEntries)
	}
	if after.MemoryEvictions == before.MemoryEvictions {
		t.Fatal("over-capacity insert did not evict")
	}

	// Recency governs eviction: touch 1, insert 3 → 2 goes, 1 stays.
	load(1)
	load(3)
	h := memHits()
	load(1)
	if memHits() != h+1 {
		t.Fatal("recently-used entry was evicted")
	}
	h = memHits()
	load(2)
	if memHits() != h {
		t.Fatal("cold entry survived past capacity")
	}

	// Eviction is not loss: everything still loads (from disk).
	for i := range keys {
		load(i)
	}
}

func TestMemoryTierByteBound(t *testing.T) {
	prevE, prevB := SetMemoryTierLimits(1<<16, 1)
	defer SetMemoryTierLimits(prevE, prevB)

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-bytes")
	if err := s.Store("interface", key, "conf", payload{Name: "oversized"}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	var out payload
	if !loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("load failed")
	}
	after := s.Stats()
	// The payload exceeds the byte bound, so promotion immediately
	// evicts it again: the tier never holds more than the cap.
	if after.MemoryBytes > 1 {
		t.Fatalf("byte bound not enforced: %d bytes resident", after.MemoryBytes)
	}
	if after.MemoryEvictions == before.MemoryEvictions {
		t.Fatal("over-budget promotion did not evict")
	}

	// The whole budget is one pool: a 100 KiB payload under a 1 MiB
	// budget stays resident, and its next load is a memory hit.
	SetMemoryTierLimits(1<<16, 1<<20)
	big := testKey(t, "image-bytes-big")
	if err := s.Store("interface", big, "conf", payload{Name: strings.Repeat("x", 100<<10)}); err != nil {
		t.Fatal(err)
	}
	before = s.Stats()
	for i := 0; i < 2; i++ {
		if !loadPayload(s, "interface", big, "conf", &out) || len(out.Name) != 100<<10 {
			t.Fatalf("load %d of the large payload failed", i)
		}
	}
	after = s.Stats()
	if after.MemoryEvictions != before.MemoryEvictions {
		t.Fatalf("a payload within budget was evicted: %d evictions", after.MemoryEvictions-before.MemoryEvictions)
	}
	if after.MemoryHits != before.MemoryHits+1 || after.MemoryBytes < 100<<10 {
		t.Fatalf("large payload not resident: %d memory hits, %d bytes resident",
			after.MemoryHits-before.MemoryHits, after.MemoryBytes)
	}
}

// TestMemoryTierRaceHammer runs concurrent Get/Store/Invalidate
// through the public Store API (every Load promotes into the memory
// tier, every Store invalidates) plus direct tier churn including
// concurrent SetMemoryTierLimits, under -race in CI.
func TestMemoryTierRaceHammer(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers      = 8
		opsPerWorker = 300
		numKeys      = 32
	)
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = testKey(t, fmt.Sprintf("hammer-%d", i))
	}
	// Seed the store so loads can hit.
	for i, k := range keys {
		if err := s.Store("interface", k, "conf", payload{Name: fmt.Sprintf("seed-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for op := 0; op < opsPerWorker; op++ {
				k := keys[rng.Intn(numKeys)]
				switch rng.Intn(4) {
				case 0: // store (re-keys the entry, invalidates the memory copy)
					if err := s.Store("interface", k, "conf", payload{Name: fmt.Sprintf("w%d-%d", w, op)}); err != nil {
						t.Errorf("store: %v", err)
						return
					}
				case 1: // direct invalidate of the memory copy
					memTier.del(s.memKey("interface", k))
				case 2: // shrink/grow the budgets concurrently
					if op%50 == 0 {
						SetMemoryTierLimits(numKeys/2, 1<<16)
						SetMemoryTierLimits(defaultMemEntries, defaultMemBytes)
					}
					fallthrough
				default: // load (promotes on a disk hit)
					var out payload
					if !loadPayload(s, "interface", k, "conf", &out) {
						t.Errorf("load %q missed", k)
						return
					}
					if !strings.HasPrefix(out.Name, "seed-") && !strings.HasPrefix(out.Name, "w") {
						t.Errorf("load %q returned foreign payload %q", k, out.Name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Restore the process-wide defaults for other tests.
	SetMemoryTierLimits(defaultMemEntries, defaultMemBytes)
	if t.Failed() {
		return
	}
	entries, bytes := memTier.snapshot()
	if entries < 0 || bytes < 0 {
		t.Fatalf("tier accounting went negative: %d entries, %d bytes", entries, bytes)
	}
}

func TestSetMemoryTierLimits(t *testing.T) {
	prevE, prevB := SetMemoryTierLimits(123, 456)
	defer SetMemoryTierLimits(prevE, prevB)
	// Non-positive values keep the current bound.
	if e, b := SetMemoryTierLimits(0, -1); e != 123 || b != 456 {
		t.Fatalf("previous bounds: %d/%d", e, b)
	}
	if e, b := SetMemoryTierLimits(7, 8); e != 123 || b != 456 {
		t.Fatalf("non-positive values must not change the bounds: %d/%d", e, b)
	}
}

func TestLoadAnyReturnsStoredFingerprint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-any")
	want := payload{Name: "whatever-conf", Syscalls: []uint64{42}}
	if err := s.Store("program", key, "conf-opaque|deps:libc.so=abc", want); err != nil {
		t.Fatal(err)
	}
	out, conf, ok := LoadAny[payload](s, "program", key)
	if !ok || conf != "conf-opaque|deps:libc.so=abc" {
		t.Fatalf("LoadAny: ok=%v conf=%q", ok, conf)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("LoadAny payload: %+v", out)
	}
	// The first LoadAny promoted the entry; the second is a memory hit
	// and must return the same fingerprint.
	h := s.Stats().MemoryHits
	out, conf, ok = LoadAny[payload](s, "program", key)
	if !ok || conf != "conf-opaque|deps:libc.so=abc" || !reflect.DeepEqual(out, want) {
		t.Fatalf("warm LoadAny: ok=%v conf=%q %+v", ok, conf, out)
	}
	if s.Stats().MemoryHits != h+1 {
		t.Fatal("warm LoadAny did not hit the memory tier")
	}
	// Absent keys miss.
	if _, _, ok := LoadAny[payload](s, "program", testKey(t, "absent")); ok {
		t.Fatal("LoadAny hit on absent key")
	}
}

func TestStoreInvalidatesMemoryTier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-inval")
	if err := s.Store("interface", key, "conf", payload{Name: "v1"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("load failed")
	}
	// Re-store (new conf): the promoted copy must not shadow it.
	if err := s.Store("interface", key, "conf-b", payload{Name: "v2"}); err != nil {
		t.Fatal(err)
	}
	if loadPayload(s, "interface", key, "conf", &out) {
		t.Fatal("stale conf served after re-store")
	}
	if !loadPayload(s, "interface", key, "conf-b", &out) || out.Name != "v2" {
		t.Fatalf("fresh entry not served: %+v", out)
	}
}

// TestMemoryTierTypeMismatchFallsThrough: a resident value is served
// only to a Load of its own type; a Load of another type under the same
// key decodes from disk instead, and its value then owns the slot.
func TestMemoryTierTypeMismatchFallsThrough(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-types")
	if err := s.Store("interface", key, "conf", payload{Name: "typed", Syscalls: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	type nameOnly struct {
		Name string `json:"name"`
	}
	asPayload := func() bool { v, ok := Load[payload](s, "interface", key, "conf"); return ok && len(v.Syscalls) == 1 }
	asName := func() bool { v, ok := Load[nameOnly](s, "interface", key, "conf"); return ok && v.Name == "typed" }
	for i, step := range []struct {
		load    func() bool
		fromMem bool
	}{
		{asPayload, false}, // read from disk and promoted
		{asPayload, true},
		{asName, false}, // the resident payload is the wrong type
		{asName, true},
		{asPayload, false},
	} {
		before := s.Stats()
		if !step.load() {
			t.Fatalf("step %d: load missed or decoded wrongly", i)
		}
		after := s.Stats()
		memHits := after.MemoryHits - before.MemoryHits
		if after.Hits != before.Hits+1 || memHits > 1 || (memHits == 1) != step.fromMem {
			t.Fatalf("step %d: %d hits, %d memory hits; want 1 hit from memory=%v", i, after.Hits-before.Hits, memHits, step.fromMem)
		}
	}
}
