package faults

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestUnarmedSeamsAreNoOps(t *testing.T) {
	if err := Fire(Stage, "decode:abc"); err != nil {
		t.Fatalf("unarmed Fire returned %v", err)
	}
	data := []byte{1, 2, 3}
	if got := TamperImage("/bin/ls", data); !bytes.Equal(got, data) {
		t.Fatalf("unarmed TamperImage changed data")
	}
}

// TestUnarmedSeamsAllocateNothing calls each seam the way production
// code does, with a 64-character hash in the key and a unit index past
// the small integers Go keeps preallocated: unarmed, none allocates.
func TestUnarmedSeamsAllocateNothing(t *testing.T) {
	hash := strings.Repeat("ab", 32)
	kind, stage, unit := "program", "identify", 1234
	data := []byte{1, 2, 3}
	allocs := testing.AllocsPerRun(100, func() {
		_ = Fire(CacheRead, kind, "/", hash)
		_ = Fire(CacheWrite, kind, "/", hash)
		_ = Fire(Stage, stage, ":", hash)
		_ = FireIndex(IdentUnit, unit)
		_ = TamperImage("/bin/ls", data)
	})
	if allocs != 0 {
		t.Errorf("unarmed seams allocate %v objects per round, want 0", allocs)
	}
}

func TestFireMatchesPointAndKey(t *testing.T) {
	injected := errors.New("disk on fire")
	restore := Activate(
		Rule{Point: CacheRead, Match: "program/", Err: injected},
		Rule{Point: Stage, Match: "deadbeef", Panic: true},
	)
	defer restore()

	if err := Fire(CacheRead, "program/abc123"); !errors.Is(err, injected) {
		t.Errorf("matching rule did not fire: %v", err)
	}
	if err := Fire(CacheRead, "program", "/", "abc123"); !errors.Is(err, injected) {
		t.Errorf("a key in parts did not match: %v", err)
	}
	if err := Fire(CacheRead, "interface/abc123"); err != nil {
		t.Errorf("non-matching key fired: %v", err)
	}
	if err := Fire(CacheWrite, "program/abc123"); err != nil {
		t.Errorf("wrong point fired: %v", err)
	}

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("panic rule did not panic")
			} else if !strings.Contains(r.(string), "injected panic") {
				t.Errorf("unrecognizable panic value: %v", r)
			}
		}()
		_ = Fire(Stage, "identify:deadbeef")
	}()
}

func TestTamperImage(t *testing.T) {
	restore := Activate(Rule{
		Point:  Image,
		Match:  "poison",
		Tamper: func(d []byte) []byte { return d[:len(d)/2] },
	})
	defer restore()

	data := []byte{1, 2, 3, 4}
	if got := TamperImage("/tmp/poison.elf", data); len(got) != 2 {
		t.Errorf("tamper not applied: %v", got)
	}
	if got := TamperImage("/tmp/clean.elf", data); !bytes.Equal(got, data) {
		t.Errorf("non-matching path tampered: %v", got)
	}
}

func TestRestoreReinstatesPreviousRules(t *testing.T) {
	outerErr := errors.New("outer")
	outer := Activate(Rule{Point: CacheRead, Err: outerErr})
	inner := Activate(Rule{Point: CacheWrite, Err: errors.New("inner")})

	if err := Fire(CacheRead, "k"); err != nil {
		t.Errorf("inner set should not have the outer rule: %v", err)
	}
	inner()
	if err := Fire(CacheRead, "k"); !errors.Is(err, outerErr) {
		t.Errorf("outer rules not restored: %v", err)
	}
	outer()
	if err := Fire(CacheRead, "k"); err != nil {
		t.Errorf("full restore left rules armed: %v", err)
	}
}
