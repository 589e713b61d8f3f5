// Command bside analyzes an x86-64 ELF executable and reports the
// superset of system calls it may invoke, optionally with execution
// phases and a seccomp-style policy.
//
// Usage:
//
//	bside [-libs dir] [-json] [-phases] [-policy] [-disasm] [-max-insns n] [-workers n] [-timings] <binary>
//	bside batch [-libs dir] [-cache dir] [-pack file] [-jobs n] [-workers n] [-max-insns n] <binary>...
//	bside fuzz [-seeds n] [-start s] [-repro dir] [-precision file]
//	bside serve [-addr host:port] [-libs dir] [-cache dir] [-pack file] [-workers n] [-max-insns n] [-inflight n] [-timeout d] [-max-upload-mb n] [-mem-cache-mb n]
//	bside sweep [-libs dir] [-cache dir] [-pack file] [-jobs n] [-workers n] [-max-insns n] [-queue n] [-diff] [-nommap] [-progress n] [-summary file] <root>
//	bside cache pack|gc -dir <cachedir>
//
// The batch form analyzes many binaries concurrently over a shared
// interface cache, emitting one JSON object per binary (JSON lines) on
// stdout — each line flushed as soon as that binary's analysis
// completes, so long fleets stream progress — and a cold/warm summary
// on stderr. With -cache, results are persisted content-addressed on
// disk and reused by later runs. The batch exits non-zero when any
// binary's analysis failed, with a failed count in the stderr summary.
//
// The fuzz form runs the randomized corpus fuzzing harness
// (internal/fuzzer): for each seed in the range it synthesizes a
// program, derives emulator ground truth, and checks soundness,
// result invariance and baseline sanity, emitting one JSON verdict
// line per seed and exiting non-zero on any violation. With -repro,
// failing seeds are shrunk to minimal reproducer files.
//
// The sweep form walks a directory tree (an unpacked container image,
// a distro /usr partition), filters to x86-64 ELF executables and
// shared objects by magic sniff, and streams every candidate through
// the analyzer with bounded memory: one JSON line per binary on
// stdout, a rolling fleet summary (throughput, warm-hit ratio, latency
// quantiles) on stderr, and optionally the final summary as JSON via
// -summary. With -diff every binary is also run through a cheap
// syspeek-style linear scanner and scan-resolved syscalls missing from
// the analysis are flagged as soundness disagreements.
//
// The cache form administers a persistent cache directory: `bside
// cache pack` compacts the loose JSON entries (and any existing pack)
// into one immutable, memory-mapped, binary-searchable pack file under
// <dir>/packs/ and prunes what it absorbed; `bside cache gc` removes
// loose entries an existing pack already serves. Warm lookups through
// a pack skip the per-entry open() and the envelope decode — a hash
// probe into a shared mapping plus one payload decode per key, after
// which the memory tier answers. Both act on an existing directory: a
// missing -dir fails instead of being created.
//
// The serve form runs the resident analysis service (internal/serve):
// one warm analyzer behind POST /analyze (upload or ?hash= cache
// lookup), streaming POST /batch, GET /metrics and GET /healthz, with
// admission control, per-request deadlines, same-image single-flight
// dedup, and graceful drain on SIGTERM.
//
// -workers sets the intra-binary worker pool: how many independent
// units (wrapper-detection functions, identification targets) of one
// binary are analyzed concurrently. Results are identical at any
// worker count.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bside"
)

// usageError marks a command-line mistake (bad flags, missing
// arguments); main reports it with exit code 2 instead of 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// exitCode distinguishes usage mistakes (2) from run failures (1).
func exitCode(err error) int {
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

func main() {
	if len(os.Args) > 1 {
		var sub func([]string, io.Writer, io.Writer) error
		switch os.Args[1] {
		case "batch":
			sub = runBatch
		case "fuzz":
			sub = runFuzz
		case "serve":
			sub = runServe
		case "sweep":
			sub = runSweep
		case "cache":
			sub = runCache
		}
		if sub != nil {
			if err := sub(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "bside:", err)
				os.Exit(exitCode(err))
			}
			return
		}
	}
	libs := flag.String("libs", "", "directory with shared-library dependencies")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	withPhases := flag.Bool("phases", false, "detect execution phases")
	asPolicy := flag.Bool("policy", false, "emit a seccomp-style allow-list policy")
	disasm := flag.Bool("disasm", false, "print the recovered disassembly listing")
	maxInsns := flag.Int("max-insns", 0, "disassembly budget (0 = default)")
	workers := flag.Int("workers", -1, "intra-binary analysis workers (-1 = one per CPU, 0/1 = serial)")
	timings := flag.Bool("timings", false, "report per-stage analysis timings on stderr")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bside [-libs dir] [-json] [-phases] [-policy] [-disasm] [-max-insns n] [-workers n] [-timings] <binary>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *libs, *asJSON, *withPhases, *asPolicy, *disasm, *maxInsns, *workers, *timings); err != nil {
		fmt.Fprintln(os.Stderr, "bside:", err)
		os.Exit(1)
	}
}

// printTimings renders the per-stage cost record (pipeline
// observability) on stderr, keeping stdout clean for the result.
func printTimings(t *bside.Timings) {
	if t == nil {
		fmt.Fprintln(os.Stderr, "timings: (cache-served, nothing computed)")
		return
	}
	fmt.Fprintf(os.Stderr, "timings: decode=%v wrappers=%v identify=%v stitch=%v",
		t.Decode, t.Wrappers, t.Identify, t.Stitch)
	if t.Phases > 0 {
		fmt.Fprintf(os.Stderr, " phases=%v", t.Phases)
	}
	fmt.Fprintf(os.Stderr, " total=%v\n", t.Total)
}

func run(path, libDir string, asJSON, withPhases, asPolicy, disasm bool, maxInsns, workers int, timings bool) error {
	a := bside.NewAnalyzer(bside.Options{
		LibraryDir:         libDir,
		MaxCFGInstructions: maxInsns,
		IntraWorkers:       workers,
	})
	res, err := a.AnalyzeFile(path)
	if err != nil {
		return err
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	if disasm {
		fmt.Print(res.Disassembly())
		return nil
	}
	if asPolicy {
		if timings {
			printTimings(res.Timings)
		}
		return enc.Encode(res.Policy())
	}
	if withPhases {
		pr, err := res.Phases(bside.PhaseOptions{})
		if err != nil {
			return err
		}
		if timings {
			printTimings(res.Timings)
		}
		if asJSON {
			return enc.Encode(pr)
		}
		fmt.Printf("%d phases (start %d)\n", len(pr.Phases), pr.Start)
		for i, ph := range pr.Phases {
			fmt.Printf("phase %d: %d syscalls allowed, %d bytes of code, %d outgoing transitions\n",
				i, len(ph.Allowed), ph.CodeBytes, len(ph.Transitions))
		}
		return nil
	}
	if timings {
		printTimings(res.Timings)
	}
	if asJSON {
		return enc.Encode(struct {
			*bside.Record
			Timings *bside.Timings `json:"timings,omitempty"`
		}{res.Record(), res.Timings})
	}

	fmt.Printf("%d system calls identified", len(res.Syscalls))
	if res.FailOpen {
		fmt.Printf(" (FAIL-OPEN: unbounded site, full table required)")
	}
	fmt.Println()
	names := res.Names()
	for i, n := range res.Syscalls {
		fmt.Printf("  %3d  %s\n", n, names[i])
	}
	if res.Wrappers > 0 {
		fmt.Printf("%d syscall wrapper(s) detected\n", res.Wrappers)
	}
	return nil
}

// batchLine is the JSON-lines record emitted per binary: the analysis
// record inside its path, cache and error envelope. A failed binary
// carries no record.
type batchLine struct {
	Path string `json:"path"`
	*bside.Record
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

func runBatch(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	libs := fs.String("libs", "", "directory with shared-library dependencies")
	cacheDir := fs.String("cache", "", "persistent content-addressed cache directory")
	packPath := fs.String("pack", "", "attach a compacted cache pack file (see bside cache pack)")
	jobs := fs.Int("jobs", 0, "worker-pool size across binaries (0 = GOMAXPROCS)")
	workers := fs.Int("workers", 0, "intra-binary analysis workers per job (0/1 = serial, -1 = one per CPU)")
	maxInsns := fs.Int("max-insns", 0, "disassembly budget per binary (0 = default)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bside batch [-libs dir] [-cache dir] [-pack file] [-jobs n] [-workers n] [-max-insns n] <binary>...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return usageError{errors.New("batch: no binaries given")}
	}

	a, err := bside.NewAnalyzerErr(bside.Options{
		LibraryDir:         *libs,
		CacheDir:           *cacheDir,
		PackPath:           *packPath,
		MaxCFGInstructions: *maxInsns,
		IntraWorkers:       *workers,
	})
	if err != nil {
		return err
	}
	start := time.Now()

	// Stream one JSON line per binary as its analysis completes (the
	// OnResult calls are serialized by AnalyzeAll), so a long fleet
	// shows progress instead of buffering behind the slowest binary.
	enc := json.NewEncoder(stdout)
	var warm, cold, failed int
	var encErr error
	results, err := a.AnalyzeAll(fs.Args(), bside.BatchOptions{
		Jobs: *jobs,
		OnResult: func(res *bside.Analysis) {
			line := batchLine{Path: res.Path}
			if res.Err != nil {
				failed++
				line.Error = res.Err.Error()
			} else {
				if res.Cached {
					warm++
				} else {
					cold++
				}
				line.Record = res.Record()
				line.Cached = res.Cached
			}
			if err := enc.Encode(line); err != nil && encErr == nil {
				encErr = err
			}
		},
	})
	if err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}
	elapsed := time.Since(start)

	st := a.CacheStats()
	fmt.Fprintf(stderr, "bside batch: %d binaries in %v: %d analyzed (cold), %d from cache (warm), %d failed",
		len(results), elapsed.Round(time.Millisecond), cold, warm, failed)
	if *cacheDir != "" {
		fmt.Fprintf(stderr, "; cache %d hits / %d misses / %d stores", st.Hits, st.Misses, st.Stores)
		if st.Packs > 0 {
			fmt.Fprintf(stderr, "; pack %d hits / %d entries", st.PackHits, st.PackEntries)
		}
	}
	fmt.Fprintln(stderr)
	if failed > 0 {
		return fmt.Errorf("%d of %d binaries failed", failed, len(results))
	}
	return nil
}
