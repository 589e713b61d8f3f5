package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCachePack: pack compacts a populated cache and reports what
// it absorbed; a second pack over the packed cache has nothing loose
// and carries the packed entries into the same content-addressed file.
func TestRunCachePack(t *testing.T) {
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
	pack := out[strings.Index(out, " -> ")+4 : strings.LastIndex(out, " (")]

	stdout.Reset()
	if err := runCache([]string{"pack", "-dir", cacheDir}, &stdout, &stderr); err != nil {
		t.Fatalf("second cache pack: %v\n%s", err, stderr.String())
	}
	if again := stdout.String(); !strings.Contains(again, " (0 loose + ") ||
		!strings.Contains(again, " -> "+pack+" (") || !strings.Contains(again, "pruned 0 loose / 0 packs") {
		t.Fatalf("second pack summary: %q, want nothing loose and the same pack %s", again, pack)
	}
}

// TestRunCacheUnknownSubcommand: a typo, or any subcommand but pack
// (gc included: pack prunes what gc did), is a usage error (exit 2)
// reported before anything touches the filesystem.
func TestRunCacheUnknownSubcommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "typo")
	for _, args := range [][]string{nil, {"bogus", "-dir", dir}, {"gc", "-dir", dir}} {
		var stdout, stderr bytes.Buffer
		err := runCache(args, &stdout, &stderr)
		if exitCode(err) != 2 {
			t.Fatalf("%v: want usage error (exit 2), got %v", args, err)
		}
		if !strings.Contains(stderr.String(), "usage: bside cache pack -dir") {
			t.Fatalf("%v: usage text missing: %q", args, stderr.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%v: directory created or unreadable: %v", args, err)
		}
	}
}

// TestRunCacheMissingDir: pack acts on an existing cache; a missing
// directory is a run failure (exit 1) and is not created.
func TestRunCacheMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	var stdout, stderr bytes.Buffer
	err := runCache([]string{"pack", "-dir", dir}, &stdout, &stderr)
	if err == nil || exitCode(err) != 1 {
		t.Fatalf("want run failure (exit 1), got %v", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("unexpected output %q", stdout.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("directory created or unreadable: %v", err)
	}
}
