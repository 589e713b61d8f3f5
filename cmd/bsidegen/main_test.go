package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunAppsOnly: the apps-only corpus is the six applications, their
// shared libraries, and a manifest giving each application a non-empty
// ground-truth set.
func TestRunAppsOnly(t *testing.T) {
	out := t.TempDir()
	if err := run(out, 42, true); err != nil {
		t.Fatal(err)
	}
	apps, err := os.ReadDir(filepath.Join(out, "apps"))
	if err != nil || len(apps) != 6 {
		t.Fatalf("apps: %d entries, err %v; want 6", len(apps), err)
	}
	libs, err := os.ReadDir(filepath.Join(out, "libs"))
	if err != nil || len(libs) == 0 {
		t.Fatalf("libs: %d entries, err %v; want some", len(libs), err)
	}
	data, err := os.ReadFile(filepath.Join(out, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest []manifestEntry
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest) != 6 {
		t.Fatalf("manifest: %d entries, want 6", len(manifest))
	}
	for _, e := range manifest {
		if len(e.Truth) == 0 {
			t.Errorf("%s: empty truth set", e.Name)
		}
	}
}
