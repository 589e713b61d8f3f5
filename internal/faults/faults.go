// Package faults is the test-only fault-injection harness behind the
// crash-containment guarantees: named seams compiled into production
// code at the points where hostile inputs or a failing disk would
// hurt, armed only by tests and the fuzzer's poison-binary legs.
//
// When nothing is armed — every production run — a seam costs one
// atomic pointer load and a nil check, and allocates nothing. When a
// test arms a Rule, the matching seam panics (to exercise the recovery
// boundaries in internal/guard), returns an injected IO error (to
// exercise cache degradation), or hands back a byte-tampered copy of an
// ELF image (to exercise the malformed-input paths) — letting tests
// prove that one poisoned binary costs exactly one result and nothing
// else.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Point names one injection seam compiled into production code.
type Point string

const (
	// Stage fires at every pipeline stage boundary, before the stage
	// body runs. Key is "<stage>:<image hash>".
	Stage Point = "stage"
	// IdentUnit fires inside each worker-pool unit of the
	// identification stages — on the worker goroutine, which is what
	// makes it the probe for goroutine-level panic containment. Key is
	// the decimal unit index.
	IdentUnit Point = "ident-unit"
	// CacheRead fires at the top of every durable cache load. Key is
	// "<kind>/<key>". An armed error makes the load behave like a
	// failing disk: counted as an IO error, served as a miss.
	CacheRead Point = "cache-read"
	// CacheWrite fires at the top of every cache store; same key
	// shape. An armed error fails the write like a full or broken
	// cache directory.
	CacheWrite Point = "cache-write"
	// Image fires on every file-backed image entering analysis. Key is
	// the file path; a matching rule's Tamper maps the image bytes to
	// a corrupted copy, simulating a binary damaged in transit.
	Image Point = "image"
)

// Rule arms one fault at one seam.
type Rule struct {
	// Point selects the seam.
	Point Point
	// Match, when non-empty, restricts the rule to keys containing it
	// (a hash, a path fragment, a cache kind). Empty matches every key
	// at the seam.
	Match string
	// Panic makes the seam panic with a recognizable value instead of
	// returning. The containment layer must convert it; an escaped
	// injected panic fails the test process loudly.
	Panic bool
	// Err is returned from IO seams (CacheRead/CacheWrite).
	Err error
	// Tamper, for the Image seam, maps image bytes to a corrupted
	// copy. It must not modify its argument (which may alias a
	// read-only mapping).
	Tamper func([]byte) []byte
}

// armed is the active rule set; nil means every seam is a no-op. Rules
// are swapped wholesale so concurrent Fire calls see a consistent set.
var armed atomic.Pointer[[]Rule]

// armMu serializes Activate/restore pairs (tests may nest them).
var armMu sync.Mutex

// Activate arms rules process-wide and returns a restore func that
// re-arms whatever was active before — use with defer. Tests that arm
// rules must not run in parallel with each other.
func Activate(rules ...Rule) (restore func()) {
	armMu.Lock()
	prev := armed.Load()
	armed.Store(&rules)
	armMu.Unlock()
	return func() {
		armMu.Lock()
		armed.Store(prev)
		armMu.Unlock()
	}
}

// match returns the first armed rule for (point, key), if any.
func match(point Point, key string) *Rule {
	rs := armed.Load()
	if rs == nil {
		return nil
	}
	for i := range *rs {
		r := &(*rs)[i]
		if r.Point == point && (r.Match == "" || strings.Contains(key, r.Match)) {
			return r
		}
	}
	return nil
}

// Fire triggers any armed fault at point for the key its parts spell,
// concatenated: a panic rule panics, an IO rule returns its error, no
// matching rule returns nil. The key is built only while a rule is
// armed, so an unarmed seam allocates nothing.
func Fire(point Point, parts ...string) error {
	if armed.Load() == nil {
		return nil
	}
	key := strings.Join(parts, "")
	r := match(point, key)
	if r == nil {
		return nil
	}
	if r.Panic {
		panic(fmt.Sprintf("faults: injected panic at %s (%s)", point, key))
	}
	return r.Err
}

// FireIndex is Fire with the decimal i as the key.
func FireIndex(point Point, i int) error {
	if armed.Load() == nil {
		return nil
	}
	return Fire(point, strconv.Itoa(i))
}

// TamperImage returns a corrupted copy of data when an Image rule
// matches key (and, if the rule is a Panic rule, panics instead); with
// nothing armed it returns data untouched.
func TamperImage(key string, data []byte) []byte {
	r := match(Image, key)
	if r == nil || r.Tamper == nil {
		if r != nil && r.Panic {
			panic(fmt.Sprintf("faults: injected panic at %s (%s)", Image, key))
		}
		return data
	}
	return r.Tamper(data)
}
