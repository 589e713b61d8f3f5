package bench

import (
	"path/filepath"
	"sort"
)

// sweepWorkload is sweep-cold and sweep-warm: closed loops of whole
// sweep.Run passes over one generated tree with Jobs = nproc, each
// pass a fresh process.
//
// sweep-cold runs without a persistent cache. On a journaled disk the
// cache's small-file writes can take most of a cold pass and change its
// length by tens of percent from one pass to the next (README.md,
// "Work-dir filesystem"), which would bury every analysis change; the
// write path is still timed, in the set-up of sweep-warm and
// serve-mixed.
//
// sweep-warm passes read the loose cache the set-up's cold pass wrote:
// decided binaries cost an identity probe and a cache read, the
// budget-exhausted ones (never cached) are analysed again every pass.
type sweepWorkload struct {
	r     *runner
	warm  bool
	tree  *tree
	cache string
	ref   map[string]Item // warm: the cold pass's answers, by ID
}

func (w *sweepWorkload) setup(dir string) error {
	t, err := genTree(w.r.cfg.Seed, dir, w.r.cfg.scale.treeBinaries)
	if err != nil {
		return err
	}
	w.tree = t
	if !w.warm {
		return nil
	}
	w.cache = filepath.Join(dir, "cache")
	cold, err := w.r.spawn(job{Kind: "sweep", Root: t.Root, Libs: t.Libs, Cache: w.cache, Jobs: w.r.nproc})
	if err != nil {
		return err
	}
	w.ref, err = w.r.reference(cold.Items, t.Inputs)
	return err
}

// pass runs one sweep in a fresh process and checks every answer;
// warm answers must also equal the cold pass's, and decided ones must
// come from the cache.
func (w *sweepWorkload) pass(traced bool) (*childResult, error) {
	res, err := w.r.spawn(job{Kind: "sweep", Root: w.tree.Root, Libs: w.tree.Libs, Cache: w.cache, Jobs: w.r.nproc, Traced: traced})
	if err != nil {
		return nil, err
	}
	if len(res.Items) != len(w.tree.Inputs) {
		w.r.check.violate("pass answered %d of %d binaries", len(res.Items), len(w.tree.Inputs))
	}
	for _, it := range res.Items {
		w.r.add(it, w.tree.Inputs[it.ID])
		if !w.warm {
			continue
		}
		want := w.ref[it.ID]
		want.Cached = want.Status == Decided
		w.r.check.Expect(it.ID, want.key(), it.key())
	}
	return res, nil
}

func (w *sweepWorkload) measure() error {
	var tput, lat, rss, busy, tail, recompute []float64
	for len(tput) == 0 || !w.r.expired() {
		res, err := w.pass(false)
		if err != nil {
			return err
		}
		tput = append(tput, float64(len(res.Items))/res.WallS)
		rss = append(rss, res.RSSMB)
		var sum, uncached float64
		done := make([]float64, 0, len(res.Items))
		for _, it := range res.Items {
			lat = append(lat, it.Ms)
			sum += it.Ms
			if !it.Cached {
				uncached += it.Ms
			}
			done = append(done, it.DoneMs)
		}
		busy = append(busy, sum/(res.WallS*1e3*float64(w.r.nproc)))
		recompute = append(recompute, uncached/sum)
		// The tail is the pass's end minus the moment the first worker
		// found no binary left to take.
		sort.Float64s(done)
		if k := len(done) - w.r.nproc; k >= 0 {
			tail = append(tail, res.WallS*1e3-done[k])
		}
	}
	w.r.put("throughput_per_s", Median(tput), len(tput))
	w.r.put("latency_p50_ms", Percentile(lat, 50), len(lat))
	w.r.putTail(lat, 99, "")
	w.r.put("peak_rss_mb", Median(rss), len(rss))
	w.r.note("sweep.busy_ratio", "ratio", Median(busy), len(busy))
	w.r.note("sweep.tail_ms", "ms", Median(tail), len(tail))
	w.r.note("sweep.recompute_share", "ratio", Median(recompute), len(recompute))
	w.r.note("sweep.passes", "count", float64(len(tput)), len(tput))
	return nil
}

func (w *sweepWorkload) trace() error {
	plain, err := w.pass(false)
	if err != nil {
		return err
	}
	traced, err := w.pass(true)
	if err != nil {
		return err
	}
	return w.r.layers(plain, traced, plain.Items, traced.Items, w.r.nproc, nil)
}
