package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bside"
	"bside/internal/cache"
	"bside/internal/serve"
)

// runServe starts the resident analysis service: one warm analyzer
// behind an HTTP/JSON API, so a fleet pays interface computation and
// cache population once per process instead of once per invocation.
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7845", "listen address")
	libs := fs.String("libs", "", "directory with shared-library dependencies")
	cacheDir := fs.String("cache", "", "persistent content-addressed cache directory")
	packPath := fs.String("pack", "", "attach a compacted cache pack file (see bside cache pack)")
	workers := fs.Int("workers", -1, "intra-binary analysis workers (-1 = one per CPU, 0/1 = serial)")
	maxInsns := fs.Int("max-insns", 0, "disassembly budget per binary (0 = default)")
	inflight := fs.Int("inflight", serve.DefaultMaxInFlight, "max concurrently running analyses; beyond it requests get 429")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request analysis deadline (0 = none); expiry answers 504")
	maxUploadMB := fs.Int64("max-upload-mb", 512, "largest accepted upload, in MiB")
	memCacheMB := fs.Int64("mem-cache-mb", 0, "memory-tier byte bound, in MiB (0 = default); bounds the warm cache's RSS")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bside serve [-addr host:port] [-libs dir] [-cache dir] [-pack file] [-workers n] [-max-insns n] [-inflight n] [-timeout d] [-max-upload-mb n] [-mem-cache-mb n]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return usageError{errors.New("serve: unexpected arguments")}
	}
	if *memCacheMB > 0 {
		cache.SetMemoryTierLimits(0, *memCacheMB<<20)
	}

	// A resident service must fail its misconfiguration at startup, not
	// on the first request: eager construction.
	analyzer, err := bside.NewAnalyzerErr(bside.Options{
		LibraryDir:         *libs,
		CacheDir:           *cacheDir,
		PackPath:           *packPath,
		MaxCFGInstructions: *maxInsns,
		IntraWorkers:       *workers,
	})
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{
		Backend:        analyzer,
		MaxInFlight:    *inflight,
		RequestTimeout: *timeout,
		MaxUploadBytes: *maxUploadMB << 20,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// SIGTERM/SIGINT drain gracefully: health goes 503 so balancers
	// stop routing here, the listener closes, and in-flight analyses
	// run to completion (bounded by their own request deadlines).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "bside serve: listening on %s\n", ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	srv.BeginDrain()
	fmt.Fprintln(stderr, "bside serve: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	<-errCh // always http.ErrServerClosed after a clean Shutdown
	fmt.Fprintln(stderr, "bside serve: drained")
	return nil
}
