package bench

import (
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		vals        []float64
		q1, med, q3 float64
		median      float64
	}{
		// Expected quartiles are Python's statistics.quantiles(vals, n=4).
		{vals: []float64{8, 1, 7, 2, 6, 3, 5, 4}, q1: 2.25, med: 4.5, q3: 6.75, median: 4.5},
		{vals: []float64{50, 10, 40, 20, 30}, q1: 15, med: 30, q3: 45, median: 30},
		{vals: []float64{5, 1}, q1: 0, med: 3, q3: 6, median: 3},
		{vals: []float64{3.2, 1.5, 9.9, 4.4, 2.0, 7.1, 6.3}, q1: 2.0, med: 4.4, q3: 7.1, median: 4.4},
	} {
		q1, med, q3 := Quartiles(c.vals)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.vals, q1, med, q3, c.q1, c.med, c.q3)
		}
		if m := Median(c.vals); !near(m, c.median) {
			t.Errorf("Median(%v) = %v, want %v", c.vals, m, c.median)
		}
	}
	if Median(nil) != 0 {
		t.Error("no values must give 0")
	}
	if q1, med, q3 := Quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Error("one value is every quartile")
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10} {
		if got := Percentile(vals, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	// 300 samples: p99 has 3 beyond it, p90 has 30 — p90 is the tail.
	// 1000: p99.9 has 1 beyond, p99 exactly 10. 10000: p99.9 has 10.
	for n, want := range map[int]float64{50: 50, 99: 50, 100: 90, 300: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := TailPercentile(n); got != want {
			t.Errorf("TailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if b := Beyond(300, 90); b != 30 {
		t.Errorf("Beyond(300, 90) = %d, want 30", b)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},  // a's child, not parent's
		{ID: 6, Name: "other", Start: 200, End: 300},
	}
	lt := aggregate(spans)
	// parent: 100 − |[10,60) ∪ [90,100)| = 100 − 60.
	for name, want := range map[string]int64{"parent": 40, "a": 20, "b": 30, "c": 30, "d": 10, "other": 100} {
		if lt.self[name] != want {
			t.Errorf("self(%s) = %d, want %d", name, lt.self[name], want)
		}
	}
	if lt.roots != 200 {
		t.Errorf("root time = %d, want 200", lt.roots)
	}
	if got := lt.share("parent"); !near(got, 0.2) {
		t.Errorf("share(parent) = %v, want 40/200", got)
	}
}

func TestBacklogGrew(t *testing.T) {
	ms100 := 100 * time.Millisecond
	steady := func(lastSent func(due time.Duration) time.Duration) bool {
		var due, sent []time.Duration
		for i := 0; i < 40; i++ { // one request every 100 ms for 4 s
			d := time.Duration(i) * ms100
			due = append(due, d)
			if d < 3*time.Second {
				sent = append(sent, d) // sent on time: never waiting
			} else {
				sent = append(sent, lastSent(d))
			}
		}
		return backlogGrew(due, sent, 4*time.Second)
	}
	// Last second, everything waits until the step ends: the backlog
	// climbs 1, 2, … 10 over ten 100 ms stretches, mean 5.5 against 0.
	if !steady(func(time.Duration) time.Duration { return 4 * time.Second }) {
		t.Error("a queue that fills over the last second must count as growing")
	}
	// Last second, each request waits exactly one interval: one request
	// is always pending, mean 1 against 0 — not more than one request.
	if steady(func(d time.Duration) time.Duration { return d + ms100 }) {
		t.Error("a constant one-request lag is not a growing backlog")
	}
	if backlogGrew(nil, nil, 0) {
		t.Error("an empty step has no backlog")
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
