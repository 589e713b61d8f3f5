// Package bench is bside's end-to-end benchmark: four seeded
// workloads, each measured in fresh child processes, every answer
// checked against emulator ground truth, and a traced mode that breaks
// the same work down by layer. cmd/bsidebench is its command; README.md
// is the dictionary of its workload and metric names.
package bench

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// EndToEnd are the metrics an untraced run reports for every workload;
// README.md defines each per workload. BENCHMARK.json lists the same
// names, units and directions.
var EndToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"decided_ratio", "ratio"},
	{"identified_mean", "syscalls"},
	{"f1_mean", "ratio"},
}

// PerLayer are the metrics a traced run reports for every workload.
// Span times that every workload exercises are medians; the rest of the
// time breakdown is each layer's summed self time as a share of the
// summed top-level span time, which stays defined where a workload
// never enters a layer.
var PerLayer = []metricDef{
	{"elff.parse_us", "us"},
	{"shared.compute_ms", "ms"},
	{"frontend.self_share", "ratio"},
	{"elff.open_share", "ratio"},
	{"elff.identity_share", "ratio"},
	{"elff.parse_share", "ratio"},
	{"cache.probe_share", "ratio"},
	{"cache.lookup_share", "ratio"},
	{"cfg.decode_share", "ratio"},
	{"ident.wrappers_share", "ratio"},
	{"ident.identify_share", "ratio"},
	{"shared.stitch_share", "ratio"},
	{"shared.self_share", "ratio"},
	{"elff.image_mb", "MB"},
	{"elff.mapped_ratio", "ratio"},
	{"cache.memory_hits", "count"},
	{"cache.pack_hits", "count"},
	{"cache.loose_hits", "count"},
	{"cache.misses", "count"},
	{"cache.stores", "count"},
	{"cache.stored_mb", "MB"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.io_errors", "count"},
	{"cfg.blocks", "count"},
	{"ident.sites", "count"},
	{"ident.blocks_explored", "count"},
	{"ident.funcmemo_hit_ratio", "ratio"},
	{"ident.undecided", "count"},
	{"shared.imports", "count"},
	{"pipeline.cpu_util", "ratio"},
	{"pipeline.busy_ratio", "ratio"},
	{"runtime.allocs_per_item", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// Workloads names every workload with the reason it exists.
var Workloads = []struct{ Name, Why string }{
	{"sweep-cold", "a fleet's first scan in fresh processes: decode, wrappers, identify and stitch do all the work"},
	{"sweep-warm", "the nightly rescan: identity probe plus cache read, and re-analysis of the budget-exhausted binaries"},
	{"large-binary", "the one-shot CLI on distinct large static binaries: identify-bound, intra-binary workers are the only parallelism"},
	{"serve-mixed", "the resident service under open-loop load: Zipf hash replays from a pack plus never-seen uploads"},
}

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// WorkDir holds every file the run writes; it is emptied first.
	WorkDir string
	// Self is the harness executable, re-run for child processes.
	Self string
	// Log receives progress and child-process diagnostics.
	Log io.Writer

	scale scale
}

// scale sizes the inputs; tests shrink them, zero values are full size.
type scale struct {
	treeBinaries  int // Debian-shaped binaries per tree (0 = all 557)
	largeBinaries int // distinct large binaries (0 = 100)
	setups        int // repeated set-ups timed for setup_s (0 = 3)
}

// Metric is one reported number.
type Metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// Report is a run's full result. The last stdout line carries the
// metrics BENCHMARK.json declares; -out writes all of it.
type Report struct {
	Env        Env      `json:"env"`
	Workload   string   `json:"workload"`
	Traced     bool     `json:"traced"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	Failures   []string `json:"failures,omitempty"`
	// Metrics are the declared metrics: EndToEnd untraced, PerLayer
	// traced, in that order.
	Metrics []Metric `json:"metrics"`
	// Detail holds workload-specific numbers (serve phases, sweep
	// pass shape) that only some workloads define.
	Detail []Metric `json:"detail,omitempty"`
}

// Line is the one-line result object a run prints last.
func (r *Report) Line() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// runner carries one run's state through a workload.
type runner struct {
	cfg      Config
	ctx      context.Context
	nproc    int
	check    Checker
	metrics  map[string]Metric
	detail   []Metric
	deadline time.Time
}

// workload is one of the four workloads.
type workload interface {
	// setup generates the inputs under dir and prepares any state the
	// measured passes start from. Repeated; the last one is kept.
	setup(dir string) error
	// measure runs the closed or open loop for the configured seconds.
	measure() error
	// trace replays the workload once untraced and once traced.
	trace() error
}

func newWorkload(r *runner) (workload, error) {
	switch r.cfg.Workload {
	case "sweep-cold":
		return &sweepWorkload{r: r}, nil
	case "sweep-warm":
		return &sweepWorkload{r: r, warm: true}, nil
	case "large-binary":
		return &largeWorkload{r: r}, nil
	case "serve-mixed":
		return &serveWorkload{r: r}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", r.cfg.Workload)
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.cfg.Log, format+"\n", args...) }

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), EndToEnd...), PerLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// put records a declared metric.
func (r *runner) put(name string, value float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.metrics[name] = Metric{Name: name, Value: value, Unit: unit, Samples: samples}
}

// annotate attaches a note to a recorded declared metric.
func (r *runner) annotate(name, note string) {
	m := r.metrics[name]
	m.Note = note
	r.metrics[name] = m
}

// putQuality records the answer-quality metrics from the outcomes
// checked so far. A workload whose amount of work depends on timing
// calls it once the fixed part of its work is checked, so the metrics
// depend on the seed alone.
func (r *runner) putQuality() {
	r.put("decided_ratio", r.check.DecidedRatio(), r.check.Attempted)
	r.put("identified_mean", r.check.IdentifiedMean(), len(r.check.seen))
	r.put("f1_mean", r.check.F1Mean(), len(r.check.seen))
}

// note records a workload-specific detail metric.
func (r *runner) note(name, unit string, value float64, samples int) {
	r.detail = append(r.detail, Metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

// expired reports whether the measuring time is used up.
func (r *runner) expired() bool { return time.Now().After(r.deadline) }

func (r *runner) spawn(j job) (*childResult, error) {
	return spawn(r.ctx, r.cfg.Self, j, r.cfg.Log)
}

// Run executes one benchmark run.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	r := &runner{cfg: cfg, ctx: ctx, nproc: runtime.NumCPU(), metrics: make(map[string]Metric)}
	w, err := newWorkload(r)
	if err != nil {
		return nil, err
	}
	// Leftovers of an earlier run would share the disk with this one.
	if err := os.RemoveAll(cfg.WorkDir); err != nil {
		return nil, err
	}
	runDir := filepath.Join(cfg.WorkDir, "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		_ = os.RemoveAll(runDir)
		syscall.Sync()
	}()
	rep := &Report{Env: probeEnv(cfg.Seed, runDir), Workload: cfg.Workload, Traced: cfg.Trace}

	setups := cfg.scale.setups
	if setups == 0 {
		setups = 3
	}
	if cfg.Trace {
		setups = 1
	}
	var times []float64
	for i := 0; i < setups; i++ {
		// Each set-up starts with nothing of the last one's left to write
		// back, so they do not time each other's disk traffic.
		syscall.Sync()
		start := time.Now()
		if err := w.setup(filepath.Join(runDir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	// Set-up writes must not be flushed during the measurement.
	syscall.Sync()
	r.logf("%s: set up %d times, median %.2fs", cfg.Workload, setups, Median(times))

	r.deadline = time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	defs := EndToEnd
	if cfg.Trace {
		defs = PerLayer
		err = w.trace()
	} else {
		r.put("setup_s", Median(times), len(times))
		err = w.measure()
		if _, ok := r.metrics["decided_ratio"]; !ok {
			r.putQuality()
		}
	}
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("workload %s did not report %s", cfg.Workload, d.name)
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	sort.SliceStable(r.detail, func(i, j int) bool { return r.detail[i].Name < r.detail[j].Name })
	rep.Detail = r.detail
	rep.Correct = r.check.Correct()
	rep.Attempted, rep.Failed = r.check.Attempted, r.check.Failed
	rep.Violations, rep.Failures = r.check.Violations, r.check.Failures
	return rep, nil
}

// Main is the bsidebench command; it returns the exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bsidebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg Config
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: sweep-cold, sweep-warm, large-binary or serve-mixed")
	fs.Int64Var(&cfg.Seed, "seed", 42, "input seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 15, "measuring time per run, in seconds")
	trace := fs.Int("trace", 0, "1 replays the workload once untraced and once traced and reports per-layer metrics")
	fs.StringVar(&cfg.WorkDir, "workdir", ".bench_build/work", "directory for generated inputs, caches and traces (emptied first)")
	out := fs.String("out", "", "also write the full report, with the environment and detail metrics, as JSON to this file")
	compare := fs.Bool("compare", false, "compare two -out reports given as arguments: base then head")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareReports(fs.Args(), stdout, stderr)
	}
	if cfg.Workload == "" || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || cfg.Seconds <= 0 {
		fs.Usage()
		return 2
	}
	cfg.Trace = *trace == 1
	cfg.Log = stderr
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bsidebench:", err)
		return 1
	}
	cfg.Self = self
	// Every child is killed, and waited for, before the run's limit or
	// when the run is interrupted.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bsidebench:", err)
		return 1
	}
	printReport(stdout, rep)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bsidebench:", err)
			return 1
		}
	}
	line, err := rep.Line()
	if err != nil {
		fmt.Fprintln(stderr, "bsidebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}

// printReport writes the human-readable report: the environment, every
// metric with its unit and sample count, and any violation.
func printReport(w io.Writer, rep *Report) {
	e := rep.Env
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s seed=%d workdir_fs=%s loadgen.late_ms_p50=%.3f loadgen.late_ms_p99=%.3f\n",
		e.NProc, e.GOMAXPROCS, e.CPU, e.Go, e.Commit, e.Seed, e.WorkdirFS, e.LateMsP50, e.LateMsP99)
	mode := "end-to-end"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s): correct=%v attempted=%d failed=%d failed_ratio=%.4f\n",
		rep.Workload, mode, rep.Correct, rep.Attempted, rep.Failed, ratio(rep.Failed, rep.Attempted))
	for _, set := range [][]Metric{rep.Metrics, rep.Detail} {
		for _, m := range set {
			fmt.Fprintf(w, "  %-28s %14.4f %-9s n=%d", m.Name, m.Value, m.Unit, m.Samples)
			if m.Note != "" {
				fmt.Fprintf(w, "  (%s)", m.Note)
			}
			fmt.Fprintln(w)
		}
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(w, "VIOLATION", v)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
}

// compareReports prints head/base ratios of two -out reports' declared
// metrics. A ratio between runs on a single CPU says nothing about
// parallel speed-up, so it refuses when either report has nproc 1.
func compareReports(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "usage: bsidebench -compare base.json head.json")
		return 2
	}
	var reps [2]Report
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "bsidebench:", err)
			return 1
		}
	}
	if err := comparable(reps[0].Env, reps[1].Env); err != nil {
		fmt.Fprintln(stderr, "bsidebench: refused:", err)
		return 2
	}
	base := make(map[string]Metric)
	for _, m := range reps[0].Metrics {
		base[m.Name] = m
	}
	for _, m := range reps[1].Metrics {
		if b, ok := base[m.Name]; ok && b.Value != 0 {
			fmt.Fprintf(stdout, "%-28s %14.4f -> %14.4f %-9s x%.3f\n", m.Name, b.Value, m.Value, m.Unit, m.Value/b.Value)
		}
	}
	return 0
}

// comparable refuses a ratio between runs that a single CPU, or two
// different machines, would make meaningless.
func comparable(a, b Env) error {
	if a.NProc == 1 || b.NProc == 1 {
		return fmt.Errorf("nproc == 1: a ratio between runs on one CPU is not a speed-up")
	}
	if a.NProc != b.NProc || a.CPU != b.CPU {
		return fmt.Errorf("runs on different machines (%d×%q vs %d×%q)", a.NProc, a.CPU, b.NProc, b.CPU)
	}
	return nil
}
