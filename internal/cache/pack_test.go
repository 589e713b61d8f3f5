package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// populate stores n entries of kind under distinct keys and returns
// the keys. Conf is confFor(i).
func populate(t *testing.T, s *Store, kind string, n int, confFor func(int) string) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = testKey(t, fmt.Sprintf("%s-image-%d", kind, i))
		in := payload{Name: fmt.Sprintf("%s-%d", kind, i), Syscalls: []uint64{uint64(i), uint64(i) + 7}}
		if err := s.Store(kind, keys[i], confFor(i), in); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func constConf(string) func(int) string { return func(int) string { return "conf" } }

// looseFiles counts the loose .json entries under dir.
func looseFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && strings.HasSuffix(path, ".json") && !strings.Contains(path, packDirName) {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// packPaths returns the paths of s's currently open pack files.
func packPaths(s *Store) []string {
	var out []string
	if ps := s.packs.Load(); ps != nil {
		for _, p := range *ps {
			out = append(out, p.path)
		}
	}
	return out
}

func TestPackRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ifaceKeys := populate(t, s, "interface", 8, constConf(""))
	progKeys := populate(t, s, "program", 8, func(i int) string { return fmt.Sprintf("conf-%d", i%2) })

	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Packed != 16 || cs.FromLoose != 16 {
		t.Fatalf("compact stats: %+v", cs)
	}
	if cs.PrunedLoose != 16 || looseFiles(t, dir) != 0 {
		t.Fatalf("loose tier not pruned: %+v (%d files left)", cs, looseFiles(t, dir))
	}

	// A fresh handle (fresh process) must discover the pack and serve
	// every entry from it, bypassing the memory tier to prove it.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.DisableMemoryTier()
	for i, key := range ifaceKeys {
		var out payload
		if !loadPayload(s2, "interface", key, "conf", &out) {
			t.Fatalf("interface %d not served from pack", i)
		}
		want := payload{Name: fmt.Sprintf("interface-%d", i), Syscalls: []uint64{uint64(i), uint64(i) + 7}}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("interface %d: got %+v want %+v", i, out, want)
		}
	}
	for i, key := range progKeys {
		_, conf, ok := LoadAny[payload](s2, "program", key)
		if !ok || conf != fmt.Sprintf("conf-%d", i%2) {
			t.Fatalf("program %d: ok=%v conf=%q", i, ok, conf)
		}
	}
	st := s2.Stats()
	if st.PackHits != 16 || st.Hits != 16 || st.MemoryHits != 0 {
		t.Fatalf("stats after pack round trip: %+v", st)
	}
	if st.Packs != 1 || st.PackEntries != 16 {
		t.Fatalf("pack gauges: %+v", st)
	}
}

func TestPackHitPromotesToMemoryTier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := populate(t, s, "interface", 1, constConf(""))
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	for i := 0; i < 2; i++ {
		if !loadPayload(s2, "interface", keys[0], "conf", &out) {
			t.Fatalf("load %d missed", i)
		}
	}
	st := s2.Stats()
	if st.PackHits != 1 || st.MemoryHits != 1 {
		t.Fatalf("second load should be a memory hit over the pack: %+v", st)
	}
}

func TestPackConfMismatchFallsThroughToLoose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "retuned-image")
	if err := s.Store("program", key, "conf-old", payload{Name: "old"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.DisableMemoryTier()
	var out payload
	// The packed entry was stored under conf-old: a retuned analyzer
	// must not be served by it.
	if loadPayload(s2, "program", key, "conf-new", &out) {
		t.Fatal("pack entry served across conf fingerprints")
	}
	// The retuned analyzer recomputes and stores loose; the loose entry
	// must win over the still-packed old-conf one.
	if err := s2.Store("program", key, "conf-new", payload{Name: "new"}); err != nil {
		t.Fatal(err)
	}
	if !loadPayload(s2, "program", key, "conf-new", &out) || out.Name != "new" {
		t.Fatalf("fresh loose entry not served: %+v", out)
	}
	// The old conf still resolves from the pack (a mixed-config fleet
	// sharing one cache keeps both).
	if !loadPayload(s2, "program", key, "conf-old", &out) || out.Name != "old" {
		t.Fatalf("packed old-conf entry lost: %+v", out)
	}
	if st := s2.Stats(); st.PackHits != 1 {
		t.Fatalf("expected exactly one pack hit: %+v", st)
	}
}

func TestCorruptPackRejectedAtOpen(t *testing.T) {
	for _, mode := range []string{"bitflip", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			keys := populate(t, s, "interface", 4, constConf(""))
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			packs := packPaths(s)
			if len(packs) != 1 {
				t.Fatalf("expected one pack, got %v", packs)
			}
			data, err := os.ReadFile(packs[0])
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "bitflip":
				data[len(data)/2] ^= 0x40
			case "truncate":
				data = data[:len(data)-7]
			}
			if err := os.WriteFile(packs[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh handle must refuse the damaged pack entirely; with
			// the loose tier compacted away, loads are misses (the caller
			// recomputes) — never a decode of corrupt bytes.
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s2.DisableMemoryTier()
			if got := packPaths(s2); len(got) != 0 {
				t.Fatalf("corrupt pack was opened: %v", got)
			}
			var out payload
			if loadPayload(s2, "interface", keys[0], "conf", &out) {
				t.Fatal("load served from a corrupt pack")
			}
			// Recompute-and-store repopulates loose; the next Compact
			// rebuilds a healthy pack over it.
			if err := s2.Store("interface", keys[0], "conf", payload{Name: "recomputed"}); err != nil {
				t.Fatal(err)
			}
			if !loadPayload(s2, "interface", keys[0], "conf", &out) || out.Name != "recomputed" {
				t.Fatalf("recomputed entry not served: %+v", out)
			}
		})
	}
}

func TestPackGhostServeProtection(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := populate(t, s, "interface", 1, constConf(""))
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !loadPayload(s, "interface", keys[0], "conf", &out) {
		t.Fatal("packed entry not served")
	}
	// Wipe the cache directory under the live handle: both the memory
	// copy (src stat) and the still-mapped pack (path stat) must stop
	// serving — an operator who cleared the cache expects recomputes.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if loadPayload(s, "interface", keys[0], "conf", &out) {
		t.Fatal("ghost-served after the cache directory was deleted")
	}
	if got := packPaths(s); len(got) != 0 {
		t.Fatalf("deleted pack still in the probe set: %v", got)
	}
}

func TestConcurrentReadersDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	keys := populate(t, s, "interface", 16, constConf(""))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[(w+i)%len(keys)]
				var out payload
				if !loadPayload(s, "interface", key, "conf", &out) {
					t.Errorf("reader %d: load %s missed mid-compaction", w, key[:8])
					return
				}
			}
		}(w)
	}
	// Compact repeatedly under the readers, interleaved with new
	// stores that the next compaction absorbs: no probe may ever land
	// between tiers.
	for round := 0; round < 3; round++ {
		if _, err := s.Compact(); err != nil {
			t.Error(err)
			break
		}
		extra := testKey(t, fmt.Sprintf("extra-%d", round))
		if err := s.Store("interface", extra, "conf", payload{Name: "x"}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestCompactCarriesOldPack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := populate(t, s, "interface", 2, constConf(""))
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// A new loose entry after the first pack: the second compaction must
	// fold it together with the old pack's entries into one new pack.
	secondKey := testKey(t, "post-pack-image")
	if err := s.Store("interface", secondKey, "conf", payload{Name: "second"}); err != nil {
		t.Fatal(err)
	}
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.FromPacks != 2 || cs.FromLoose != 1 || cs.Packed != 3 || cs.PrunedPacks != 1 {
		t.Fatalf("second compact stats: %+v", cs)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.DisableMemoryTier()
	for _, key := range []string{first[0], first[1], secondKey} {
		var out payload
		if !loadPayload(s2, "interface", key, "conf", &out) {
			t.Fatalf("entry %s lost across re-compaction", key[:8])
		}
	}
	if st := s2.Stats(); st.Packs != 1 || st.PackHits != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestAttachPackSkipsOpenPack: attaching the pack Open already found
// under the store's packs/ directory leaves one pack in the probe set
// (misses would otherwise probe it twice, and the gauges would double),
// while a different pack still joins.
func TestAttachPackSkipsOpenPack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, s, "interface", 8, constConf(""))
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := s2.Stats()
	if err := s2.AttachPack(cs.PackPath); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Packs != 1 || st.PackEntries != 8 || st.PackBytesMapped != before.PackBytesMapped {
		t.Fatalf("re-attached pack counted twice: %+v", st)
	}

	other, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	populate(t, other, "program", 3, constConf(""))
	ocs, err := other.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AttachPack(ocs.PackPath); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Packs != 2 || st.PackEntries != 11 {
		t.Fatalf("a different pack was not attached: %+v", st)
	}
}

// TestPackReservedByteRejected: index byte 39 is reserved and must be
// zero. A pack with it set (what the binary payload codecs of earlier
// releases wrote) is refused whole even when its checksum is valid,
// and loads fall through to the loose tier.
func TestPackReservedByteRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := populate(t, s, "interface", 2, constConf(""))
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	path := packPaths(s)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[packHeaderSize+packRecordSize+39] = 1 // second record
	sum := sha256.Sum256(data[packHeaderSize:])
	copy(data[48:80], sum[:])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openPack(path); err == nil || !strings.Contains(err.Error(), "reserved byte") {
		t.Fatalf("openPack accepted a set reserved byte: %v", err)
	}
	// Compaction pruned the loose tier; put one entry back so the
	// fall-through has something to find.
	if err := s.Store("interface", keys[0], "conf", payload{Name: "loose"}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.DisableMemoryTier()
	if got := packPaths(s2); len(got) != 0 {
		t.Fatalf("pack with a set reserved byte was opened: %v", got)
	}
	var out payload
	if !loadPayload(s2, "interface", keys[0], "conf", &out) || out.Name != "loose" {
		t.Fatalf("load did not fall through to loose: %+v", out)
	}
	if loadPayload(s2, "interface", keys[1], "conf", &out) {
		t.Fatal("entry served from the refused pack")
	}
	if st := s2.Stats(); st.PackHits != 0 || st.Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCollectLooseSkipsForeignKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A valid entry under a key that is not hex SHA-256: packs index
	// raw 32-byte keys, so it must stay loose and keep working.
	if err := s.Store("interface", "not-a-hash-key", "conf", payload{Name: "odd"}); err != nil {
		t.Fatal(err)
	}
	keys := populate(t, s, "interface", 1, constConf(""))
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Packed != 1 || cs.SkippedLoose != 1 {
		t.Fatalf("compact stats: %+v", cs)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.DisableMemoryTier()
	var out payload
	if !loadPayload(s2, "interface", "not-a-hash-key", "conf", &out) || out.Name != "odd" {
		t.Fatal("foreign-key entry lost by compaction")
	}
	if !loadPayload(s2, "interface", keys[0], "conf", &out) {
		t.Fatal("packed entry not served")
	}
}

func TestBuildPackDeterministicAndDeduped(t *testing.T) {
	mk := func(kind, img, conf, body string) packEntry {
		e := packEntry{kind: kind, conf: conf, payload: []byte(body)}
		if !decodeHexKey(testKeyRaw(img), &e.key) {
			t.Fatalf("bad test key for %q", img)
		}
		return e
	}
	a := []packEntry{
		mk("program", "i1", "c1", `{"name":"a"}`),
		mk("interface", "i2", "", `{"name":"b"}`),
		mk("program", "i1", "c1", `{"name":"a"}`), // exact dup
		mk("program", "i1", "c2", `{"name":"a2"}`),
	}
	b := []packEntry{a[3], a[1], a[0], a[2]} // same set, different order
	ba, err := buildPack(append([]packEntry(nil), a...))
	if err != nil {
		t.Fatal(err)
	}
	bb, err := buildPack(append([]packEntry(nil), b...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ba, bb) {
		t.Fatal("pack bytes depend on input order")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "x"+packExt)
	if err := os.WriteFile(path, ba, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := openPack(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.count != 3 {
		t.Fatalf("dedup: %d entries, want 3", p.count)
	}
	if _, payload, ok := p.probe("program", testKeyRaw("i1"), "c2", false); !ok || string(payload) != `{"name":"a2"}` {
		t.Fatalf("probe c2: ok=%v payload=%q", ok, payload)
	}
	if _, _, ok := p.probe("program", testKeyRaw("i1"), "c3", false); ok {
		t.Fatal("probe served a conf never stored")
	}
	if conf, _, ok := p.probe("interface", testKeyRaw("i2"), "ignored", true); !ok || conf != "" {
		t.Fatalf("anyConf probe: ok=%v conf=%q", ok, conf)
	}
}

// testKeyRaw is testKey without the *testing.T plumbing, for table
// construction.
func testKeyRaw(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestMemoryHitIsAllocationFree pins the satellite fix: a memory-tier
// hit must assign the already-decoded value, not re-Unmarshal the
// payload. The stat of the durable backing and the memKey build cost a
// small constant number of allocations; the old code's per-hit
// json.Unmarshal scaled with payload size. Both are asserted: a small
// constant ceiling, and no growth on a payload ~100x larger.
func TestMemoryHitIsAllocationFree(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	small := testKey(t, "alloc-small")
	big := testKey(t, "alloc-big")
	bigSet := make([]uint64, 400)
	for i := range bigSet {
		bigSet[i] = uint64(i * 3)
	}
	if err := s.Store("interface", small, "conf", payload{Name: "s", Syscalls: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Store("interface", big, "conf", payload{Name: strings.Repeat("b", 512), Syscalls: bigSet}); err != nil {
		t.Fatal(err)
	}
	measure := func(key string) float64 {
		var out payload
		if !loadPayload(s, "interface", key, "conf", &out) { // promote
			t.Fatalf("seed load for %s missed", key[:8])
		}
		return testing.AllocsPerRun(100, func() {
			var out payload
			if !loadPayload(s, "interface", key, "conf", &out) {
				t.Fatal("memory hit missed")
			}
		})
	}
	smallAllocs := measure(small)
	bigAllocs := measure(big)
	// The constant: memKey concat + os.Stat internals. Anything above
	// this means a decode crept back onto the hit path.
	const ceiling = 6
	if smallAllocs > ceiling || bigAllocs > ceiling {
		t.Fatalf("memory hit allocates: small=%.0f big=%.0f (ceiling %d)", smallAllocs, bigAllocs, ceiling)
	}
	if bigAllocs > smallAllocs {
		t.Fatalf("memory-hit allocations scale with payload size: small=%.0f big=%.0f", smallAllocs, bigAllocs)
	}
	if st := s.Stats(); st.MemoryHits == 0 {
		t.Fatalf("loads were not memory hits: %+v", st)
	}
}
