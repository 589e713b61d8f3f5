package bench

import "path/filepath"

// largeWorkload is large-binary: a closed loop with one caller over
// distinct large static binaries, each analysed once per fresh process
// by the one-shot CLI's call (AnalyzeFileContext, IntraWorkers = nproc,
// no cache). Distinct content keeps the process-wide function memo from
// replaying earlier answers, which is what in-process repetition of
// one binary measures instead.
type largeWorkload struct {
	r      *runner
	inputs map[string]*input
	paths  []string
}

// largeBinaries is how many distinct large binaries one process
// analyses at full scale: about two seconds of work per pass.
const largeBinaries = 100

func (w *largeWorkload) setup(dir string) error {
	n := w.r.cfg.scale.largeBinaries
	if n == 0 {
		n = largeBinaries
	}
	built, paths, err := genLarge(w.r.cfg.Seed, filepath.Join(dir, "large"), n)
	if err != nil {
		return err
	}
	w.paths = paths
	w.inputs = make(map[string]*input, n)
	for _, in := range built {
		w.inputs[in.ID] = in
	}
	return nil
}

func (w *largeWorkload) pass(traced bool) (*childResult, error) {
	res, err := w.r.spawn(job{Kind: "large", Paths: w.paths, Workers: w.r.nproc, Traced: traced})
	if err != nil {
		return nil, err
	}
	if len(res.Items) != len(w.paths) {
		w.r.check.violate("pass answered %d of %d binaries", len(res.Items), len(w.paths))
	}
	for _, it := range res.Items {
		w.r.add(it, w.inputs[it.ID])
	}
	return res, nil
}

func (w *largeWorkload) measure() error {
	var tput, lat, rss []float64
	for len(tput) == 0 || !w.r.expired() {
		res, err := w.pass(false)
		if err != nil {
			return err
		}
		for _, it := range res.Items {
			lat = append(lat, it.Ms)
		}
		tput = append(tput, float64(len(res.Items))/res.WallS)
		rss = append(rss, res.RSSMB)
	}
	w.r.put("throughput_per_s", Median(tput), len(tput))
	w.r.put("latency_p50_ms", Percentile(lat, 50), len(lat))
	w.r.putTail(lat, 90, "")
	w.r.put("peak_rss_mb", Median(rss), len(rss))
	w.r.note("large.passes", "count", float64(len(tput)), len(tput))
	return nil
}

func (w *largeWorkload) trace() error {
	plain, err := w.pass(false)
	if err != nil {
		return err
	}
	traced, err := w.pass(true)
	if err != nil {
		return err
	}
	return w.r.layers(plain, traced, plain.Items, traced.Items, 1, nil)
}
