package bench

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of vals.
func sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// mean is the arithmetic mean of vals; 0 for no values.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Median is the middle value of vals (the mean of the two middle values
// for an even count); 0 for no values.
func Median(vals []float64) float64 {
	_, med, _ := Quartiles(vals)
	return med
}

// Quartiles returns the first quartile, median and third quartile of
// vals by the same rule as Python's statistics.quantiles(vals, n=4)
// (the default "exclusive" method), so a spread computed here matches
// one computed from a run log in Python. Fewer than two values give the
// single value (or 0) for all three.
func Quartiles(vals []float64) (q1, med, q3 float64) {
	s := sorted(vals)
	n := len(s)
	if n < 2 {
		v := 0.0
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of vals:
// the smallest value with at least p% of the samples at or below it.
func Percentile(vals []float64, p float64) float64 {
	s := sorted(vals)
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile
// among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error in p·n/100 (99.9% of 10000 computes
	// as 9990.000000000002) from adding a rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Beyond counts the samples ranked above the p-th percentile of n.
func Beyond(n int, p float64) int { return n - rank(n, p) }

// MinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean more than its few largest outliers.
const MinBeyond = 10

// TailPercentile is the highest of the conventional tail percentiles
// that has at least MinBeyond samples beyond it among n, or 50 when
// even p90 has too few.
func TailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if Beyond(n, p) >= MinBeyond {
			return p
		}
	}
	return 50
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time span.
type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs, clipped to [lo, hi):
// overlapping intervals count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}

// backlogGrew reports whether an open-loop client queue grew over one
// load step. due and sent are each request's due time and actual send
// time, measured from the step's start; dur is the step's length. The
// backlog at instant t is the number of requests due by t and not yet
// sent. It is averaged over the step's first window and its last (one
// second each, or a quarter of the step when that is shorter), sampled
// every 10 ms; the queue grew when the last window's mean exceeds the
// first's by more than one request.
func backlogGrew(due, sent []time.Duration, dur time.Duration) bool {
	win := min(time.Second, dur/4)
	if win <= 0 {
		return false
	}
	backlog := func(from time.Duration) float64 {
		const step = 10 * time.Millisecond
		total, samples := 0, 0
		for t := from; t < from+win; t += step {
			for i := range due {
				if due[i] <= t && sent[i] > t {
					total++
				}
			}
			samples++
		}
		return float64(total) / float64(samples)
	}
	return backlog(dur-win) > backlog(0)+1
}
