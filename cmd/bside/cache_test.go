package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCachePackAndGC: pack compacts a populated cache and reports
// what it absorbed; gc over the packed cache then has nothing left to
// prune; a second pack over an already packed cache has nothing loose.
func TestRunCachePackAndGC(t *testing.T) {
	dir := t.TempDir()
	bin := writeTestBinary(t, dir, "packme")
	cacheDir := filepath.Join(dir, "cache")
	var stdout, stderr bytes.Buffer
	if err := runBatch([]string{"-cache", cacheDir, bin}, &stdout, &stderr); err != nil {
		t.Fatalf("populating batch failed: %v\n%s", err, stderr.String())
	}

	stdout.Reset()
	if err := runCache([]string{"pack", "-dir", cacheDir}, &stdout, &stderr); err != nil {
		t.Fatalf("cache pack: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "bside cache pack: "+cacheDir+": ") ||
		!strings.Contains(out, " loose + 0 carried) -> ") ||
		!strings.Contains(out, filepath.Join(cacheDir, "packs")) {
		t.Fatalf("pack summary: %q", out)
	}
	if strings.Contains(out, "binary") {
		t.Fatalf("pack summary still reports binary encoding: %q", out)
	}

	stdout.Reset()
	if err := runCache([]string{"gc", "-dir", cacheDir}, &stdout, &stderr); err != nil {
		t.Fatalf("cache gc: %v\n%s", err, stderr.String())
	}
	if want := "bside cache gc: " + cacheDir + ": pruned 0 loose entries already packed, kept 0\n"; stdout.String() != want {
		t.Fatalf("gc summary: %q, want %q", stdout.String(), want)
	}
}

// TestRunCacheUnknownSubcommand: a typo is a usage error (exit 2)
// reported before anything touches the filesystem.
func TestRunCacheUnknownSubcommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo")
	for _, args := range [][]string{nil, {"bogus", "-dir", dir}} {
		var stdout, stderr bytes.Buffer
		err := runCache(args, &stdout, &stderr)
		if exitCode(err) != 2 {
			t.Fatalf("%v: want usage error (exit 2), got %v", args, err)
		}
		if !strings.Contains(stderr.String(), "usage: bside cache pack|gc") {
			t.Fatalf("%v: usage text missing: %q", args, stderr.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%v: directory created or unreadable: %v", args, err)
		}
	}
}

// TestRunCacheMissingDir: pack and gc act on an existing cache; a
// missing directory is a run failure (exit 1) and is not created.
func TestRunCacheMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	for _, sub := range []string{"pack", "gc"} {
		var stdout, stderr bytes.Buffer
		err := runCache([]string{sub, "-dir", dir}, &stdout, &stderr)
		if err == nil || exitCode(err) != 1 {
			t.Fatalf("%s: want run failure (exit 1), got %v", sub, err)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%s: unexpected output %q", sub, stdout.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s: directory created or unreadable: %v", sub, err)
		}
	}
}
