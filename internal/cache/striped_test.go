package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestStripedTierPropertyVsReference drives identical randomized op
// streams through the striped tier and a single-mutex reference LRU
// with the same total budgets, checking the invariants striping must
// preserve: payload correctness (a resident entry always returns the
// last value put under its key), budget enforcement (resident entries
// and bytes never exceed the configured caps plus the per-stripe floor
// slack), and eviction behaviour within a per-stripe tolerance of the
// reference — striping relaxes global recency, it must not change the
// budget arithmetic.
func TestStripedTierPropertyVsReference(t *testing.T) {
	const (
		maxEntries = 64
		maxBytes   = int64(4 << 10)
		maxPayload = 256
		numKeys    = 200
		numOps     = 4000
	)
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		striped := newStripedTier(maxEntries, maxBytes)
		ref := newLRUTier(maxEntries, maxBytes)

		// Model of the last value stored per key while resident.
		last := make(map[string]string)
		keys := make([]string, numKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("dir\x00interface\x00key-%03d-%d", i, seed)
		}
		for op := 0; op < numOps; op++ {
			key := keys[rng.Intn(numKeys)]
			switch rng.Intn(10) {
			case 0: // delete
				striped.del(key)
				ref.del(key)
				delete(last, key)
			case 1, 2, 3: // get
				if ent, ok := striped.get(key); ok {
					want, stored := last[key]
					if !stored {
						t.Fatalf("seed %d: get %q returned an entry never stored", seed, key)
					}
					if got, _ := ent.val.(string); got != want {
						t.Fatalf("seed %d: get %q = %q, want %q", seed, key, got, want)
					}
				}
				ref.get(key)
			default: // put
				payload := strings.Repeat("x", 1+rng.Intn(maxPayload-1))
				ent := memEntry{key: key, conf: "c", size: len(payload), val: payload}
				striped.put(ent)
				ref.put(memEntry{key: key, conf: "c", size: len(payload), val: payload})
				last[key] = payload
			}

			if op%512 == 0 || op == numOps-1 {
				entries, bytes := striped.snapshot()
				// Per-stripe floors can push the effective cap above the
				// configured one by at most one entry/byte per stripe.
				if entries > maxEntries+tierStripes {
					t.Fatalf("seed %d: %d entries resident, cap %d", seed, entries, maxEntries)
				}
				if bytes > maxBytes+int64(tierStripes*maxPayload) {
					t.Fatalf("seed %d: %d bytes resident, cap %d", seed, bytes, maxBytes)
				}
			}
		}

		// Eviction volume tracks the reference within a byte-budget
		// tolerance: both tiers shed the same insert volume against the
		// same total budget, but hash imbalance across stripes makes hot
		// stripes evict slightly more than a global LRU (and boundary
		// floors slightly less) — a ~10% band plus per-stripe slack
		// covers that without masking broken accounting.
		se := striped.evictions()
		re := ref.evictions.Load()
		slack := re/10 + uint64(tierStripes)
		min, max := re, re
		if min > slack {
			min -= slack
		} else {
			min = 0
		}
		max += slack
		if se < min || se > max {
			t.Fatalf("seed %d: striped evictions %d outside reference band [%d,%d] (ref %d)", seed, se, min, max, re)
		}
	}
}

// TestStripedTierRaceHammer runs concurrent Get/Store/Invalidate
// through the public Store API (every Load promotes into the striped
// tier, every Store invalidates) plus direct tier churn including
// concurrent setLimits, under -race in CI.
func TestStripedTierRaceHammer(t *testing.T) {
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
