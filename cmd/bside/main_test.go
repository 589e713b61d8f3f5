package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bside/internal/corpus"
	"bside/internal/elff"
)

// writeTestBinary synthesizes a small self-contained static binary.
func writeTestBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin, err := corpus.BuildProgram(corpus.Profile{
		Name: name, Kind: elff.KindStatic,
		HotDirect: 3, HotWrapper: 1, Filler: 8, Seed: 12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := bin.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBatchFailureExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	good := writeTestBinary(t, dir, "good")
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not an elf"), 0o755); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	err := runBatch([]string{good, junk}, &stdout, &stderr)
	if err == nil {
		t.Fatal("batch with a failing binary must return an error")
	}
	if !strings.Contains(err.Error(), "1 of 2 binaries failed") {
		t.Fatalf("error must carry the failed count: %v", err)
	}
	if exitCode(err) != 1 {
		t.Fatalf("run failure must exit 1, got %d", exitCode(err))
	}
	if !strings.Contains(stderr.String(), "1 failed") {
		t.Fatalf("stderr summary must report the failed count: %q", stderr.String())
	}

	// Both binaries still produced JSON lines: the good one with
	// syscalls, the bad one with an error field.
	var sawGood, sawBad bool
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		var line struct {
			Path     string   `json:"path"`
			Syscalls []uint64 `json:"syscalls"`
			Error    string   `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		switch line.Path {
		case good:
			sawGood = len(line.Syscalls) > 0 && line.Error == ""
		case junk:
			sawBad = line.Error != ""
		}
	}
	if !sawGood || !sawBad {
		t.Fatalf("missing per-binary lines: good=%v bad=%v\n%s", sawGood, sawBad, stdout.String())
	}
}

func TestRunBatchSuccess(t *testing.T) {
	dir := t.TempDir()
	good := writeTestBinary(t, dir, "solo")
	var stdout, stderr bytes.Buffer
	if err := runBatch([]string{good}, &stdout, &stderr); err != nil {
		t.Fatalf("healthy batch failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "0 failed") {
		t.Fatalf("summary: %q", stderr.String())
	}
}

func TestRunBatchUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := runBatch(nil, &stdout, &stderr)
	if err == nil {
		t.Fatal("no binaries must be a usage error")
	}
	if exitCode(err) != 2 {
		t.Fatalf("usage error must exit 2, got %d", exitCode(err))
	}
	if !strings.Contains(stderr.String(), "usage: bside batch") {
		t.Fatalf("usage text missing: %q", stderr.String())
	}
}

func TestRunFuzzArgumentHandling(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"non-positive seeds", []string{"-seeds", "0"}},
		{"negative seeds", []string{"-seeds", "-3"}},
		{"stray positional", []string{"-seeds", "1", "leftover"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := runFuzz(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatal("want usage error")
			}
			if exitCode(err) != 2 {
				t.Fatalf("usage mistakes must exit 2, got %d (%v)", exitCode(err), err)
			}
		})
	}
}

func TestRunFuzzSmoke(t *testing.T) {
	// A tiny real run: two seeds through the full oracle, one JSON
	// verdict line each, zero violations, nil error.
	var stdout, stderr bytes.Buffer
	if err := runFuzz([]string{"-seeds", "2", "-start", "7"}, &stdout, &stderr); err != nil {
		t.Fatalf("fuzz run failed: %v\n%s", err, stderr.String())
	}
	var seeds []int64
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var v struct {
			Seed       int64    `json:"seed"`
			Sound      bool     `json:"sound"`
			Invariant  bool     `json:"invariant"`
			Violations []string `json:"violations"`
		}
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad verdict line %q: %v", sc.Text(), err)
		}
		if !v.Sound || !v.Invariant || len(v.Violations) > 0 {
			t.Fatalf("violating verdict: %s", sc.Text())
		}
		seeds = append(seeds, v.Seed)
	}
	if len(seeds) != 2 || seeds[0] != 7 || seeds[1] != 8 {
		t.Fatalf("verdict seeds: %v", seeds)
	}
	if !strings.Contains(stderr.String(), "2 seeds (7..8)") {
		t.Fatalf("summary: %q", stderr.String())
	}
}

func TestUsageErrorUnwraps(t *testing.T) {
	inner := errors.New("inner")
	if !errors.Is(usageError{inner}, inner) {
		t.Fatal("usageError must unwrap")
	}
}

// TestUsageSynopsisListsEveryFlag: every flag a subcommand's -h help
// lists also appears as -name in its synopsis line.
func TestUsageSynopsisListsEveryFlag(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func([]string, io.Writer, io.Writer) error
		args []string
	}{
		{"batch", runBatch, []string{"-h"}},
		{"fuzz", runFuzz, []string{"-h"}},
		{"serve", runServe, []string{"-h"}},
		{"sweep", runSweep, []string{"-h"}},
		{"cache pack", runCache, []string{"pack", "-h"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := tc.run(tc.args, &stdout, &stderr); err != nil {
				t.Fatalf("-h: %v", err)
			}
			synopsis, defaults, _ := strings.Cut(stderr.String(), "\n")
			words := strings.Fields(strings.NewReplacer("[", " ", "]", " ").Replace(synopsis))
			flags := 0
			for _, line := range strings.Split(defaults, "\n") {
				// PrintDefaults starts each flag's entry with "  -name".
				rest, ok := strings.CutPrefix(line, "  -")
				if !ok {
					continue
				}
				flags++
				if name := "-" + strings.Fields(rest)[0]; !slices.Contains(words, name) {
					t.Errorf("synopsis %q omits %s", synopsis, name)
				}
			}
			if flags == 0 {
				t.Fatalf("-h listed no flags:\n%s", stderr.String())
			}
		})
	}
}
