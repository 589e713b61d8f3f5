package bside

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bside/internal/corpus"
	"bside/internal/elff"
)

// writeCorpusApp materializes one app binary and its libraries on disk
// and returns (binary path, library dir).
func writeCorpusApp(t *testing.T) (string, string) {
	t.Helper()
	set, err := corpus.GenerateApps()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	libDir := filepath.Join(dir, "libs")
	if err := os.MkdirAll(libDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, lib := range set.Libs {
		writeBinary(t, filepath.Join(libDir, name), lib)
	}
	app := set.Apps[5] // sqlite: the smallest
	path := filepath.Join(dir, app.Profile.Name)
	writeBinary(t, path, app.Bin)
	return path, libDir
}

func writeBinary(t *testing.T, path string, bin *elff.Binary) {
	t.Helper()
	spec := elff.Spec{
		Kind:      bin.Kind,
		Base:      bin.Base,
		Entry:     bin.Entry,
		Blob:      bin.Blob,
		CodeSize:  bin.CodeSize,
		Exports:   bin.Exports,
		Imports:   bin.Imports,
		Needed:    bin.Needed,
		Symbols:   bin.Symbols,
		HasUnwind: bin.HasUnwind,
	}
	data, err := elff.Write(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeFileEndToEnd(t *testing.T) {
	path, libDir := writeCorpusApp(t)
	a := NewAnalyzer(Options{LibraryDir: libDir})
	res, err := a.AnalyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailOpen {
		t.Fatal("unexpected fail-open")
	}
	if len(res.Syscalls) < 20 {
		t.Fatalf("suspiciously few syscalls: %v", res.Syscalls)
	}
	if !res.Has(60) {
		t.Fatal("exit must be identified")
	}
	if res.Has(9999) {
		t.Fatal("Has out of range")
	}
	names := res.Names()
	if len(names) != len(res.Syscalls) {
		t.Fatalf("names/syscalls mismatch")
	}
	pol := res.Policy()
	if !reflect.DeepEqual(pol.Allowed, res.Syscalls) || pol.FailOpen {
		t.Fatalf("policy: %+v", pol)
	}
	if len(res.Imports) == 0 {
		t.Fatal("app must reach imports")
	}
	// The policy compiles to a valid seccomp-BPF program that allows
	// exactly the identified set.
	prog, err := pol.Seccomp()
	if err != nil {
		t.Fatalf("seccomp: %v", err)
	}
	for _, n := range res.Syscalls {
		if !prog.Allows(n) {
			t.Fatalf("filter denies identified syscall %d", n)
		}
	}
	if prog.Allows(321) { // bpf is never in the corpus's hot pools
		t.Fatal("filter allows un-identified syscall")
	}
}

func TestPhasesEndToEnd(t *testing.T) {
	path, libDir := writeCorpusApp(t)
	a := NewAnalyzer(Options{LibraryDir: libDir})
	res, err := a.AnalyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := res.Phases(PhaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Phases) < 2 {
		t.Fatalf("phases: %d", len(pr.Phases))
	}
	// Back-propagated policies only grow.
	bp, err := res.Phases(PhaseOptions{BackPropagate: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pr.Phases {
		if len(bp.Phases[i].Allowed) < len(pr.Phases[i].Allowed) {
			t.Fatalf("phase %d shrank under back-propagation", i)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	a := NewAnalyzer(Options{})
	if _, err := a.AnalyzeBytes([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := a.AnalyzeFile("/nonexistent/binary"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSyscallNameHelpers(t *testing.T) {
	if SyscallName(0) != "read" {
		t.Fatal("SyscallName")
	}
	if n, ok := SyscallNumber("execve"); !ok || n != 59 {
		t.Fatal("SyscallNumber")
	}
}

// TestPolicyNamesMatchAnalysisNames: a number the table does not name
// (clone3, 435, which glibc 2.36 issues directly) gets the same
// syscall_N name in the policy and from SyscallName as in the analysis.
func TestPolicyNamesMatchAnalysisNames(t *testing.T) {
	res := &Analysis{Syscalls: []uint64{60, 435}}
	want := []string{"exit", "syscall_435"}
	if got := res.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	if got := res.Policy().AllowedNames; !reflect.DeepEqual(got, want) {
		t.Fatalf("Policy().AllowedNames = %q, want %q", got, want)
	}
	for i, n := range res.Syscalls {
		if got := SyscallName(n); got != want[i] {
			t.Fatalf("SyscallName(%d) = %q, want %q", n, got, want[i])
		}
	}
}

// TestRecordRendersEveryKey: an analysis with no syscalls and no
// imports still renders all five keys, its empty collections as [].
func TestRecordRendersEveryKey(t *testing.T) {
	got, err := json.Marshal((&Analysis{}).Record())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"syscalls":[],"names":[],"fail_open":false,"wrappers":0,"imports":[]}`
	if string(got) != want {
		t.Fatalf("record %s, want %s", got, want)
	}
}
