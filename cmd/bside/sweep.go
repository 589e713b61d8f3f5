package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bside"
	"bside/internal/sweep"
)

// runSweep implements `bside sweep`: walk a directory tree, analyze
// every x86-64 ELF executable and shared object in it, stream one JSON
// line per binary on stdout, and report a rolling fleet summary on
// stderr. The exit status is the fleet verdict: non-zero when any
// binary failed or (with -diff) any soundness disagreement surfaced.
func runSweep(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	libs := fs.String("libs", "", "directory with shared-library dependencies")
	cacheDir := fs.String("cache", "", "persistent content-addressed cache directory")
	packPath := fs.String("pack", "", "attach a compacted cache pack file (see bside cache pack)")
	jobs := fs.Int("jobs", 0, "concurrent analysis workers (0 = GOMAXPROCS)")
	workers := fs.Int("workers", 0, "intra-binary analysis workers per job (0/1 = serial, -1 = one per CPU)")
	maxInsns := fs.Int("max-insns", 0, "disassembly budget per binary (0 = default)")
	queue := fs.Int("queue", 0, "bounded path-queue depth between walker and workers (0 = 256)")
	diff := fs.Bool("diff", false, "run the syspeek-style linear scanner on every binary and flag disagreements")
	progress := fs.Int("progress", 64, "rolling summary cadence in binaries (0 = default)")
	sumFile := fs.String("summary", "", "write the final fleet summary as JSON to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bside sweep [-libs dir] [-cache dir] [-pack file] [-jobs n] [-workers n] [-max-insns n] [-queue n] [-diff] [-progress n] [-summary file] <root>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return usageError{errors.New("sweep: exactly one root directory required")}
	}
	root := fs.Arg(0)

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

	enc := json.NewEncoder(stdout)
	var encErr error
	sum, err := sweep.Run(context.Background(), root, sweep.Options{
		Analyzer:      a,
		Jobs:          *jobs,
		QueueDepth:    *queue,
		Diff:          *diff,
		ProgressEvery: *progress,
		OnResult: func(r *sweep.Result) {
			line := struct {
				*sweep.Result
				*bside.Record
			}{Result: r}
			if r.Analysis != nil {
				line.Record = r.Analysis.Record()
			}
			if e := enc.Encode(line); e != nil && encErr == nil {
				encErr = e
			}
		},
		OnProgress: func(s *sweep.Summary) {
			line := fmt.Sprintf("bside sweep: %d/%d analyzed, %.1f bin/s, warm %.0f%%, p50 %.1fms p99 %.1fms, %d failed",
				s.Analyzed, s.ELFs, s.BinariesPerSec, 100*s.WarmHitRatio, s.P50Ms, s.P99Ms, s.Failed)
			if s.PackHits > 0 {
				line += fmt.Sprintf(", %d pack hits", s.PackHits)
			}
			fmt.Fprintln(stderr, line)
		},
	})
	if err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}

	if *sumFile != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*sumFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	elapsed := time.Duration(sum.ElapsedMs * float64(time.Millisecond))
	fmt.Fprintf(stderr, "bside sweep: %d files, %d ELF candidates, %d analyzed in %v (%.1f bin/s, warm %.0f%%, p50 %.1fms p99 %.1fms)",
		sum.Files, sum.ELFs, sum.Analyzed, elapsed.Round(time.Millisecond),
		sum.BinariesPerSec, 100*sum.WarmHitRatio, sum.P50Ms, sum.P99Ms)
	if sum.Failed > 0 {
		fmt.Fprintf(stderr, ", %d failed %v", sum.Failed, sum.FailurePhases)
	}
	if *diff {
		fmt.Fprintf(stderr, ", %d scan disagreements", sum.ScanDisagreements)
	}
	if sum.PackHits > 0 {
		fmt.Fprintf(stderr, ", %d pack hits", sum.PackHits)
	}
	fmt.Fprintln(stderr)

	if sum.Failed > 0 {
		return fmt.Errorf("%d of %d candidates failed", sum.Failed, sum.ELFs)
	}
	if sum.ScanDisagreements > 0 {
		return fmt.Errorf("%d binaries with scan-resolved syscalls missing from the analysis", sum.ScanDisagreements)
	}
	return nil
}
