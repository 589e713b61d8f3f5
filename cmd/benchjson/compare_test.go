package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, name string, doc Document) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareDetectsRegression(t *testing.T) {
	oldPath := writeDoc(t, "old.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkB-8", NsPerOp: 500, AllocsPerOp: 50},
	}})
	newPath := writeDoc(t, "new.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-4", NsPerOp: 1050, AllocsPerOp: 100}, // +5%: within threshold
		{Name: "BenchmarkB-4", NsPerOp: 700, AllocsPerOp: 50},   // +40%: regression
	}})
	var out strings.Builder
	regressed, err := Compare(&out, oldPath, newPath, 10, []string{"ns/op", "allocs/op"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("regression not detected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkB") {
		t.Fatalf("report must name the regressed benchmark:\n%s", out.String())
	}
	if strings.Contains(out.String(), "FAIL BenchmarkA") {
		t.Fatalf("within-threshold drift must not fail:\n%s", out.String())
	}
}

func TestCompareImprovementAndMetricFilter(t *testing.T) {
	oldPath := writeDoc(t, "old.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 1000, AllocsPerOp: 100},
	}})
	// ns/op doubled but only allocs/op is gated; allocs halved.
	newPath := writeDoc(t, "new.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 2000, AllocsPerOp: 50},
	}})
	var out strings.Builder
	regressed, err := Compare(&out, oldPath, newPath, 10, []string{"allocs/op"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("ungated metric must not fail the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "-50.0%") {
		t.Fatalf("improvement not reported:\n%s", out.String())
	}
}

func TestCompareToleratesSuiteChanges(t *testing.T) {
	oldPath := writeDoc(t, "old.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkGone-8", NsPerOp: 10},
		{Name: "BenchmarkKept-8", NsPerOp: 10},
	}})
	newPath := writeDoc(t, "new.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkKept-8", NsPerOp: 10},
		{Name: "BenchmarkAdded-8", NsPerOp: 10},
	}})
	var out strings.Builder
	regressed, err := Compare(&out, oldPath, newPath, 10, []string{"ns/op"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("suite growth/shrink must not fail:\n%s", out.String())
	}
	for _, want := range []string{"new  BenchmarkAdded", "gone BenchmarkGone"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in report:\n%s", want, out.String())
		}
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	// BenchmarkZero regresses from a true 0 allocs/op; the document
	// records the unit elsewhere, so the zero is a measurement, not a
	// missing -benchmem run.
	oldPath := writeDoc(t, "old.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkZero-8", NsPerOp: 10, AllocsPerOp: 0},
		{Name: "BenchmarkOther-8", NsPerOp: 10, AllocsPerOp: 7},
	}})
	newPath := writeDoc(t, "new.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkZero-8", NsPerOp: 10, AllocsPerOp: 5000},
		{Name: "BenchmarkOther-8", NsPerOp: 10, AllocsPerOp: 7},
	}})
	var out strings.Builder
	regressed, err := Compare(&out, oldPath, newPath, 10, []string{"allocs/op"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "FAIL BenchmarkZero") {
		t.Fatalf("regression from zero baseline must fail:\n%s", out.String())
	}
}

func TestCompareSkipsUnrecordedUnit(t *testing.T) {
	// The baseline predates -benchmem: allocs/op is zero everywhere, so
	// the unit is not comparable and must be skipped, not failed.
	oldPath := writeDoc(t, "old.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 10},
	}})
	newPath := writeDoc(t, "new.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 10, AllocsPerOp: 123},
	}})
	var out strings.Builder
	regressed, err := Compare(&out, oldPath, newPath, 10, []string{"allocs/op"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("pre-benchmem baseline must not gate allocs:\n%s", out.String())
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":            "BenchmarkX",
		"BenchmarkX/workers=4-16": "BenchmarkX/workers=4",
		"BenchmarkX/workers=4":    "BenchmarkX/workers=4",
		"BenchmarkX":              "BenchmarkX",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareRequireBaseline(t *testing.T) {
	oldPath := writeDoc(t, "old.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkKept-8", NsPerOp: 10, AllocsPerOp: 5},
	}})
	newPath := writeDoc(t, "new.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkKept-8", NsPerOp: 10, AllocsPerOp: 5},
		{Name: "BenchmarkAdded-8", NsPerOp: 10, AllocsPerOp: 5},
	}})
	// Tolerant mode: growth is reported, not failed.
	var out strings.Builder
	regressed, err := Compare(&out, oldPath, newPath, 10, []string{"allocs/op"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("tolerant mode must not fail on growth:\n%s", out.String())
	}
	// Strict mode: a benchmark without a baseline entry fails the gate.
	out.Reset()
	regressed, err = Compare(&out, oldPath, newPath, 10, []string{"allocs/op"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "FAIL BenchmarkAdded") {
		t.Fatalf("-require-baseline must flag the unbaselined benchmark:\n%s", out.String())
	}
	if strings.Contains(out.String(), "FAIL BenchmarkKept") {
		t.Fatalf("baselined benchmarks must not fail:\n%s", out.String())
	}

	// Strict mode, the other direction: a baseline entry the new run
	// lacks fails the gate too, so a deleted or renamed benchmark
	// cannot leave its entry behind. Tolerant mode only reports it.
	shrunk := writeDoc(t, "shrunk.json", Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkOther-8", NsPerOp: 10, AllocsPerOp: 5},
	}})
	out.Reset()
	if regressed, err = Compare(&out, oldPath, shrunk, 10, []string{"allocs/op"}, false); err != nil || regressed {
		t.Fatalf("tolerant mode must not fail on a missing benchmark (%v):\n%s", err, out.String())
	}
	out.Reset()
	regressed, err = Compare(&out, oldPath, shrunk, 10, []string{"allocs/op"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "FAIL BenchmarkKept") {
		t.Fatalf("-require-baseline must flag the baseline entry the new run lacks:\n%s", out.String())
	}
}
