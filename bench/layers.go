package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// outcome turns a reported item into what the checker judges, with
// the input's ground truth.
func outcome(it Item, in *input) Outcome {
	o := Outcome{ID: it.ID, Status: it.Status, Syscalls: it.Syscalls, FailOpen: it.FailOpen}
	if it.Status != Decided {
		o.Detail = it.Result
	}
	if in == nil {
		o.Status, o.Detail = Failed, "answer for an input the run never generated"
	} else {
		o.Truth = in.Truth
	}
	return o
}

func (r *runner) add(it Item, in *input) { r.check.Add(outcome(it, in)) }

// reference checks a set-up pass — whose answers later passes are held
// to — and indexes it by ID. It is not counted as attempted work; any
// wrong or missing answer fails the set-up.
func (r *runner) reference(items []Item, inputs map[string]*input) (map[string]Item, error) {
	var c Checker
	ref := make(map[string]Item, len(items))
	for _, it := range items {
		c.Add(outcome(it, inputs[it.ID]))
		ref[it.ID] = it
	}
	if !c.Correct() || c.Failed > 0 || len(ref) != len(inputs) {
		return nil, fmt.Errorf("set-up pass answered %d of %d inputs with %d violations and %d failures: %v %v",
			len(ref), len(inputs), len(c.Violations), c.Failed, c.Violations, c.Failures)
	}
	return ref, nil
}

// putTail reports latency_tail_ms as the p-th percentile of vals,
// noting when fewer than MinBeyond samples lie beyond it. where, if
// set, says which samples vals holds.
func (r *runner) putTail(vals []float64, p float64, where string) {
	r.put("latency_tail_ms", Percentile(vals, p), len(vals))
	note := strings.TrimSpace(fmt.Sprintf("p%g %s", p, where))
	if b := Beyond(len(vals), p); b < MinBeyond {
		note += fmt.Sprintf("; only %d samples beyond it, p%g is the highest with %d", b, TailPercentile(len(vals)), MinBeyond)
	}
	r.annotate("latency_tail_ms", note)
}

// layers reports the per-layer metrics of one workload from an untraced
// replay (plain) and a traced replay of the same inputs. Their answers
// must agree item by item, byte for byte; spans come from the traced
// replay, counters and process figures from the untraced one.
// concurrency is how many items the workload keeps in flight.
func (r *runner) layers(plain, traced *childResult, plainItems, tracedItems []Item, concurrency int, client []Span) error {
	want := make(map[string]string, len(plainItems))
	for _, it := range plainItems {
		want[it.ID] = it.key()
	}
	if len(plainItems) != len(tracedItems) {
		r.check.violate("traced replay answered %d items, untraced %d", len(tracedItems), len(plainItems))
	}
	for _, it := range tracedItems {
		r.check.Expect("traced "+it.ID, want[it.ID], it.key())
	}

	lt := aggregate(traced.Spans)
	r.put("elff.parse_us", Percentile(lt.durs["elff.parse"], 50), len(lt.durs["elff.parse"]))
	r.put("shared.compute_ms", Percentile(lt.durs["shared.compute"], 50)/1e3, len(lt.durs["shared.compute"]))
	n := len(traced.Spans)
	for _, s := range []struct{ metric, span string }{
		{"frontend.self_share", "frontend"},
		{"elff.open_share", "elff.open"},
		{"elff.identity_share", "elff.identity"},
		{"elff.parse_share", "elff.parse"},
		{"cache.probe_share", "cache.probe"},
		{"cache.lookup_share", "cache.lookup"},
		{"cfg.decode_share", "cfg.decode"},
		{"ident.wrappers_share", "ident.wrappers"},
		{"ident.identify_share", "ident.identify"},
		{"shared.stitch_share", "shared.stitch"},
		{"shared.self_share", "shared.compute"},
	} {
		r.put(s.metric, lt.share(s.span), n)
	}

	cs := plain.Cache
	items := len(plainItems)
	r.put("elff.image_mb", float64(cs.ImageBytes)/1e6, int(cs.ImageOpens))
	r.put("elff.mapped_ratio", ratio(int(cs.ImageMapped), int(cs.ImageOpens)), int(cs.ImageOpens))
	r.put("cache.memory_hits", float64(cs.MemoryHits), items)
	r.put("cache.pack_hits", float64(cs.PackHits), items)
	r.put("cache.loose_hits", float64(cs.Hits-cs.MemoryHits-cs.PackHits), items)
	r.put("cache.misses", float64(cs.Misses), items)
	r.put("cache.stores", float64(cs.Stores), items)
	r.put("cache.stored_mb", float64(cs.StoredBytes)/1e6, int(cs.Stores))
	r.put("cache.hit_ratio", ratio(int(cs.Hits), int(cs.Hits+cs.Misses)), int(cs.Hits+cs.Misses))
	r.put("cache.evictions", float64(cs.MemoryEvictions), items)
	r.put("cache.io_errors", float64(cs.CacheIOErrors), items)
	for _, name := range []string{"cfg.blocks", "ident.sites", "ident.blocks_explored", "shared.imports"} {
		r.put(name, traced.Counts[name], items)
	}
	memo := cs.FuncMemoHits + cs.FuncMemoMisses
	r.put("ident.funcmemo_hit_ratio", ratio(int(cs.FuncMemoHits), int(memo)), int(memo))
	undecided := 0
	var plainMs, tracedMs float64
	for _, it := range plainItems {
		plainMs += it.Ms
		if it.Status == Undecided {
			undecided++
		}
	}
	for _, it := range tracedItems {
		tracedMs += it.Ms
	}
	r.put("ident.undecided", float64(undecided), items)
	r.put("pipeline.cpu_util", plain.CPUS/(plain.ProcS*float64(r.nproc)), 1)
	r.put("pipeline.busy_ratio", plainMs/(plain.WallS*1e3*float64(concurrency)), items)
	r.put("runtime.allocs_per_item", plain.Allocs/float64(max(items, 1)), items)
	r.put("runtime.gc_cpu_share", plain.GCCPUS/plain.CPUS, 1)
	r.put("trace.overhead_ratio", tracedMs/plainMs, items)
	return r.writeTrace(traced.Spans, client)
}

// writeTrace writes the traced replay's spans next to the run's
// working directory, where they outlive the run.
func (r *runner) writeTrace(spans, client []Span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
		// Client spans come from the load generator's process and clock.
		Client []Span `json:"client_spans,omitempty"`
	}{r.cfg.Workload, r.cfg.Seed, spans, client})
	if err != nil {
		return err
	}
	path := filepath.Join(r.cfg.WorkDir, "trace-"+r.cfg.Workload+".json")
	r.logf("%s: wrote %d spans to %s", r.cfg.Workload, len(spans)+len(client), path)
	return os.WriteFile(path, data, 0o644)
}
