package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// loadDoc reads one artifact document.
func loadDoc(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// normalizeName strips the trailing GOMAXPROCS suffix go test appends
// ("BenchmarkX/sub-8" -> "BenchmarkX/sub"), so documents from machines
// with different core counts still line up.
func normalizeName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		suffix := name[i+1:]
		digits := len(suffix) > 0
		for _, c := range suffix {
			if c < '0' || c > '9' {
				digits = false
				break
			}
		}
		if digits {
			return name[:i]
		}
	}
	return name
}

// Compare diffs two documents benchmark by benchmark and reports
// whether any gated metric regressed by more than threshold percent.
// A regression is strictly a worse number for the same name and
// metric. Lower is better for every gated unit.
//
// requireBaseline holds the suite and the baseline to the same set of
// names: a benchmark present in the new run but missing from the
// baseline fails the gate, and so does a baseline entry the new run
// lacks. A change that adds, renames or deletes a gated benchmark must
// refresh the committed baseline in the same change — otherwise a new
// benchmark would ride ungated, or a stale entry would linger, until
// someone remembered. Without the flag, both are reported but
// tolerated.
func Compare(w io.Writer, oldPath, newPath string, threshold float64, metrics []string, requireBaseline bool) (regressed bool, err error) {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return false, err
	}
	oldBy := make(map[string]*Benchmark, len(oldDoc.Benchmarks))
	for i := range oldDoc.Benchmarks {
		oldBy[normalizeName(oldDoc.Benchmarks[i].Name)] = &oldDoc.Benchmarks[i]
	}
	// A unit is comparable only when the baseline document recorded it
	// somewhere: a baseline taken without -benchmem carries allocs/op=0
	// everywhere, and gating against it would flag every benchmark. An
	// individual zero in a document that does record the unit is a real
	// measurement, and regressing from it can never pass.
	docHas := func(doc *Document, unit string) bool {
		for i := range doc.Benchmarks {
			if v, ok := doc.Benchmarks[i].metric(unit); ok && v > 0 {
				return true
			}
		}
		return false
	}

	for i := range newDoc.Benchmarks {
		nb := &newDoc.Benchmarks[i]
		name := normalizeName(nb.Name)
		ob, ok := oldBy[name]
		if !ok {
			if requireBaseline {
				regressed = true
				fmt.Fprintf(w, "FAIL %-48s (no baseline entry — refresh the committed baseline)\n", name)
			} else {
				fmt.Fprintf(w, "new  %-48s (no baseline)\n", name)
			}
			continue
		}
		delete(oldBy, name)
		for _, unit := range metrics {
			unit = strings.TrimSpace(unit)
			ov, ook := ob.metric(unit)
			nv, nok := nb.metric(unit)
			if !ook || !nok || !docHas(oldDoc, unit) {
				continue
			}
			verdict := "ok  "
			var pct float64
			switch {
			case ov == 0 && nv == 0:
				// Perfect then, perfect now.
			case ov == 0:
				// Any growth from a true zero is unbounded regression.
				verdict = "FAIL"
				regressed = true
				fmt.Fprintf(w, "%s %-48s %-10s %14.1f -> %14.1f    +inf%%\n",
					verdict, name, unit, ov, nv)
				continue
			default:
				pct = (nv - ov) / ov * 100
				if pct > threshold {
					verdict = "FAIL"
					regressed = true
				}
			}
			fmt.Fprintf(w, "%s %-48s %-10s %14.1f -> %14.1f  %+6.1f%%\n",
				verdict, name, unit, ov, nv, pct)
		}
	}
	gone := make([]string, 0, len(oldBy))
	for name := range oldBy {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		if requireBaseline {
			regressed = true
			fmt.Fprintf(w, "FAIL %-48s (baseline entry not in new run — refresh the committed baseline)\n", name)
		} else {
			fmt.Fprintf(w, "gone %-48s (not in new run)\n", name)
		}
	}
	if regressed {
		fmt.Fprintf(w, "REGRESSION: at least one gated check failed (threshold %.1f%%)\n", threshold)
	}
	return regressed, nil
}
