// Command benchjson converts `go test -bench` text output (stdin) into
// a machine-readable JSON document (stdout) for the CI benchmark
// trajectory: each PR's bench-compare run uploads a BENCH_<sha>.json
// artifact built by this tool, so per-stage, allocation and cold/warm
// performance is comparable across commits without scraping logs.
//
// Usage:
//
//	go test -bench=. -benchtime=3x -benchmem . | benchjson -commit $(git rev-parse --short HEAD)
//
// Compare mode gates regressions against a committed baseline:
//
//	benchjson -compare BENCH_seed.json BENCH_new.json
//
// exits non-zero when any benchmark present in both documents regressed
// by more than -threshold percent on a gated metric (-metrics, default
// "ns/op,allocs/op"). allocs/op is deterministic and safe to gate on
// any runner; ns/op is only meaningful between runs of comparable
// machines, so CI gates allocations and records (but does not gate)
// time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name string `json:"name"`
	Runs int64  `json:"runs"`
	// NsPerOp is the headline metric.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp carry -benchmem's allocation columns;
	// zero when the run did not use -benchmem.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries any further unit pairs (custom units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// metric returns the named metric's value (using the compare-mode unit
// names) and whether the unit is one the benchmark can carry. The
// first-class units always answer — a recorded zero is a real value
// (0 allocs/op is the best possible baseline, and a regression from it
// must be caught); whether the document recorded the unit at all is
// decided at document level by Compare.
func (b *Benchmark) metric(unit string) (float64, bool) {
	switch unit {
	case "ns/op":
		return b.NsPerOp, true
	case "B/op":
		return b.BytesPerOp, true
	case "allocs/op":
		return b.AllocsPerOp, true
	}
	v, ok := b.Metrics[unit]
	return v, ok
}

// Document is the artifact schema.
type Document struct {
	Commit     string      `json:"commit,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Timestamp  string      `json:"timestamp"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	commit := flag.String("commit", "", "commit SHA to stamp into the document")
	compare := flag.Bool("compare", false, "compare two documents (old.json new.json) instead of parsing")
	threshold := flag.Float64("threshold", 10, "compare: allowed regression in percent before failing")
	metrics := flag.String("metrics", "ns/op,allocs/op", "compare: comma-separated metrics to gate on")
	requireBaseline := flag.Bool("require-baseline", false, "compare: fail when a new-run benchmark has no baseline entry or a baseline entry is not in the new run (forces baseline refreshes to land with the suite change)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := Compare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, strings.Split(*metrics, ","), *requireBaseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	doc, err := Parse(os.Stdin, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Timestamp = time.Now().UTC().Format(time.RFC3339)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
