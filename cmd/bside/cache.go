package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bside/internal/cache"
)

const cacheUsage = "usage: bside cache pack -dir <cachedir>"

// runCache administers a cache directory: compaction into the mmapped
// pack tier. It acts on an existing cache, so a missing -dir is an
// error rather than a directory to create.
func runCache(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		fmt.Fprintln(stderr, cacheUsage)
		return usageError{errors.New("cache: missing subcommand")}
	}
	if sub := args[0]; sub != "pack" {
		fmt.Fprintln(stderr, cacheUsage)
		return usageError{fmt.Errorf("cache: unknown subcommand %q", sub)}
	}
	fs := flag.NewFlagSet("cache pack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "cache directory (as given to -cache / CacheDir)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, cacheUsage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if *dir == "" {
		fs.Usage()
		return usageError{errors.New("cache: -dir is required")}
	}
	if info, err := os.Stat(*dir); err != nil {
		return fmt.Errorf("cache pack: %w", err)
	} else if !info.IsDir() {
		return fmt.Errorf("cache pack: %s is not a directory", *dir)
	}
	st, err := cache.Open(*dir)
	if err != nil {
		return err
	}
	cs, err := st.Compact()
	if err != nil {
		return err
	}
	if cs.Packed == 0 {
		fmt.Fprintf(stdout, "bside cache pack: nothing to pack in %s (%d files skipped)\n", *dir, cs.SkippedLoose)
		return nil
	}
	fmt.Fprintf(stdout, "bside cache pack: %s: %d entries (%d loose + %d carried) -> %s (%d bytes); pruned %d loose / %d packs, skipped %d\n",
		*dir, cs.Packed, cs.FromLoose, cs.FromPacks,
		cs.PackPath, cs.PackBytes, cs.PrunedLoose, cs.PrunedPacks, cs.SkippedLoose)
	return nil
}
