package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"bside"
	"bside/internal/serve"
	"bside/internal/sweep"
)

// Every measured pass runs in a fresh child process — the harness
// re-executes itself with ChildArg — because the function memo
// (ident.ProcessMemo) and the cache's memory tier are process-wide: a
// second pass in the same process replays them, which no user's first
// `bside sweep` or one-shot analysis does. The job travels as JSON on
// the child's stdin and the result comes back as JSON on its stdout.

// ChildArg, as the first argument, makes the harness binary run one
// job as a child process.
const ChildArg = "-child"

// job is one child-process pass.
type job struct {
	Kind    string   `json:"kind"` // "sweep", "large" or "serve"
	Root    string   `json:"root,omitempty"`
	Paths   []string `json:"paths,omitempty"`
	Libs    string   `json:"libs,omitempty"`
	Cache   string   `json:"cache,omitempty"`
	Pack    string   `json:"pack,omitempty"`
	Jobs    int      `json:"jobs,omitempty"`
	Workers int      `json:"workers,omitempty"`
	Traced  bool     `json:"traced,omitempty"`
}

// Item is one analyzed binary as a child reports it.
type Item struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Result is the canonical answer: the serve package's rendering of
	// a decided analysis, or the error text otherwise. Traced and
	// untraced replays must agree on it byte for byte.
	Result   string   `json:"result"`
	Syscalls []uint64 `json:"syscalls,omitempty"`
	FailOpen bool     `json:"fail_open,omitempty"`
	Cached   bool     `json:"cached,omitempty"`
	// Ms is the analysis call's wall time; DoneMs is when it completed,
	// since the pass began.
	Ms     float64 `json:"ms"`
	DoneMs float64 `json:"done_ms"`
}

// key is the item's answer as replays compare it.
func (it Item) key() string { return fmt.Sprintf("%s|%v|%s", it.Status, it.Cached, it.Result) }

func itemOf(id string, res *bside.Analysis, err error) Item {
	if err != nil {
		return Item{ID: id, Status: classifyErr(err.Error()), Result: err.Error()}
	}
	return Item{ID: id, Status: Decided, Result: string(serve.Render(res)),
		Syscalls: res.Syscalls, FailOpen: res.FailOpen, Cached: res.Cached}
}

// childResult is what a child reports, plus what the parent reads off
// the exited process.
type childResult struct {
	Items []Item `json:"items,omitempty"`
	// WallS is the child's measured section: analyzer construction
	// through the last result.
	WallS  float64            `json:"wall_s"`
	Cache  bside.CacheStats   `json:"cache"`
	GCCPUS float64            `json:"gc_cpu_s"`
	Allocs float64            `json:"allocs"`
	Spans  []Span             `json:"spans,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
	Serve  *serve.Metrics     `json:"serve,omitempty"`
	RSSMB  float64            `json:"-"`
	CPUS   float64            `json:"-"`
	ProcS  float64            `json:"-"`
}

// runtimeSample reads the Go runtime's GC CPU time and allocation
// count, so a child can report them for its measured section.
func runtimeSample() (gcCPU, allocs float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocs = float64(s[1].Value.Uint64())
	}
	return gcCPU, allocs
}

// ChildMain runs the job read from stdin and writes its result to
// stdout; it returns the process exit code.
func ChildMain(stdin io.Reader, stdout io.Writer) int {
	dec := json.NewDecoder(stdin)
	var j job
	if err := dec.Decode(&j); err != nil {
		fmt.Fprintln(os.Stderr, "bsidebench child: bad job:", err)
		return 2
	}
	var res *childResult
	var err error
	switch j.Kind {
	case "sweep":
		res, err = sweepChild(j)
	case "large":
		res, err = largeChild(j)
	case "serve":
		// The parent closes stdin to stop the service.
		res, err = serveChild(j, io.MultiReader(dec.Buffered(), stdin), stdout)
	default:
		err = fmt.Errorf("unknown job kind %q", j.Kind)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bsidebench child %s: %v\n", j.Kind, err)
		return 1
	}
	return 0
}

// measured wraps a child's measured section with its clock and runtime
// counters.
func measured(fn func(rec *Recorder) (*childResult, error), traced bool) (*childResult, error) {
	var rec *Recorder
	if traced {
		rec = NewRecorder()
	}
	gc0, allocs0 := runtimeSample()
	start := time.Now()
	res, err := fn(rec)
	if err != nil {
		return nil, err
	}
	res.WallS = time.Since(start).Seconds()
	gc1, allocs1 := runtimeSample()
	res.GCCPUS, res.Allocs = gc1-gc0, allocs1-allocs0
	res.Spans = rec.Spans()
	return res, nil
}

// fileAnalyzer is the file entry point both the public analyzer and the
// traced analyzer provide.
type fileAnalyzer interface {
	AnalyzeFileContext(ctx context.Context, path string) (*bside.Analysis, error)
}

// sweepChild runs one sweep pass: sweep.Run with the public analyzer,
// or, traced, the same walk over the traced analyzer.
func sweepChild(j job) (*childResult, error) {
	return measured(func(rec *Recorder) (*childResult, error) {
		opts := bside.Options{LibraryDir: j.Libs, CacheDir: j.Cache}
		res := &childResult{}
		start := time.Now()
		record := func(path string, an *bside.Analysis, err error, took time.Duration) {
			it := itemOf(rel(j.Root, path), an, err)
			it.Ms, it.DoneMs = ms(took), ms(time.Since(start))
			res.Items = append(res.Items, it)
		}
		if !j.Traced {
			a, err := bside.NewAnalyzerErr(opts)
			if err != nil {
				return nil, err
			}
			_, err = sweep.Run(context.Background(), j.Root, sweep.Options{Analyzer: a, Jobs: j.Jobs, OnResult: func(r *sweep.Result) {
				var err error
				if r.Phase != "" {
					err = fmt.Errorf("%s", r.Error)
				}
				record(r.Path, r.Analysis, err, time.Duration(r.Ms*float64(time.Millisecond)))
			}})
			res.Cache = a.CacheStats()
			return res, err
		}
		t, err := newTracedAnalyzer(opts, rec)
		if err != nil {
			return nil, err
		}
		var paths []string
		err = filepath.WalkDir(j.Root, func(path string, d os.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				paths = append(paths, path)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		var mu sync.Mutex
		forEach(paths, j.Jobs, func(path string) {
			begin := time.Now()
			an, err := t.AnalyzeFileContext(context.Background(), path)
			took := time.Since(begin)
			mu.Lock()
			record(path, an, err, took)
			mu.Unlock()
		})
		res.Counts = t.workCounts()
		return res, nil
	}, j.Traced)
}

// largeChild analyzes each path once, in order, with one caller: the
// one-shot CLI's call on each large binary.
func largeChild(j job) (*childResult, error) {
	return measured(func(rec *Recorder) (*childResult, error) {
		opts := bside.Options{IntraWorkers: j.Workers}
		var a fileAnalyzer
		var pub *bside.Analyzer
		var t *tracedAnalyzer
		var err error
		if j.Traced {
			t, err = newTracedAnalyzer(opts, rec)
			a = t
		} else {
			pub, err = bside.NewAnalyzerErr(opts)
			a = pub
		}
		if err != nil {
			return nil, err
		}
		res := &childResult{}
		start := time.Now()
		for _, path := range j.Paths {
			begin := time.Now()
			an, err := a.AnalyzeFileContext(context.Background(), path)
			it := itemOf(filepath.Base(path), an, err)
			it.Ms, it.DoneMs = ms(time.Since(begin)), ms(time.Since(start))
			res.Items = append(res.Items, it)
		}
		if t != nil {
			res.Counts = t.workCounts()
		} else {
			res.Cache = pub.CacheStats()
		}
		return res, nil
	}, j.Traced)
}

// serveChild runs the resident service on a loopback port, announces
// the address as its first output line, serves until stop reaches EOF,
// then drains and reports.
func serveChild(j job, stop io.Reader, stdout io.Writer) (*childResult, error) {
	return measured(func(rec *Recorder) (*childResult, error) {
		opts := bside.Options{LibraryDir: j.Libs, CacheDir: j.Cache, PackPath: j.Pack, IntraWorkers: j.Workers}
		var backend serve.Backend
		var t *tracedAnalyzer
		var err error
		if j.Traced {
			t, err = newTracedAnalyzer(opts, rec)
			backend = t
		} else {
			backend, err = bside.NewAnalyzerErr(opts)
		}
		if err != nil {
			return nil, err
		}
		// The CLI's defaults: `bside serve` bounds each request at two
		// minutes and admits DefaultMaxInFlight concurrent analyses.
		srv := serve.New(serve.Config{Backend: backend, RequestTimeout: 2 * time.Minute})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		served := make(chan error, 1)
		go func() { served <- hs.Serve(ln) }()
		if _, err := fmt.Fprintf(stdout, "%s\n", ln.Addr()); err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, stop)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return nil, err
		}
		<-served
		snap := srv.MetricsSnapshot()
		res := &childResult{Serve: &snap, Cache: snap.Cache}
		if t != nil {
			res.Counts = t.workCounts()
		}
		return res, nil
	}, j.Traced)
}

// forEach runs fn over items on n workers and waits for them.
func forEach(items []string, n int, fn func(string)) {
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < max(n, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				fn(it)
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()
}

func rel(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return filepath.ToSlash(r)
	}
	return path
}

// spawn runs one job in a fresh child process and waits for it.
func spawn(ctx context.Context, self string, j job, log io.Writer) (*childResult, error) {
	in, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, ChildArg)
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, log
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", j.Kind, err)
	}
	return decodeChild(j.Kind, out.Bytes(), cmd.ProcessState, time.Since(start))
}

func decodeChild(kind string, out []byte, ps *os.ProcessState, elapsed time.Duration) (*childResult, error) {
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child: bad result: %w", kind, err)
	}
	res.ProcS = elapsed.Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		res.CPUS = seconds(ru.Utime) + seconds(ru.Stime)
	}
	return &res, nil
}

func seconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// server is a running serve child.
type server struct {
	Addr  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	start time.Time
}

// startServer launches a serve child and waits for its address.
func startServer(ctx context.Context, self string, j job, log io.Writer) (*server, error) {
	in, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, ChildArg)
	cmd.Stderr = log
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	if _, err = stdin.Write(in); err == nil {
		var line string
		if line, err = s.out.ReadString('\n'); err == nil {
			s.Addr = strings.TrimSpace(line)
			return s, nil
		}
	}
	_ = s.kill()
	return nil, fmt.Errorf("serve child did not start: %w", err)
}

// stop drains the service and collects its report.
func (s *server) stop() (*childResult, error) {
	if err := s.stdin.Close(); err != nil {
		_ = s.kill()
		return nil, err
	}
	out, rerr := io.ReadAll(s.out)
	if err := s.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("serve child: %w", err)
	}
	if rerr != nil {
		return nil, rerr
	}
	return decodeChild("serve", out, s.cmd.ProcessState, time.Since(s.start))
}

// kill ends the child on an error path and waits for it.
func (s *server) kill() error {
	_ = s.cmd.Process.Kill()
	return s.cmd.Wait()
}
