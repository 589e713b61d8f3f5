package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bside/internal/cache"
)

const cacheUsage = "usage: bside cache pack|gc -dir <cachedir>"

// runCache administers a cache directory: compaction into the mmapped
// pack tier, and garbage collection of loose entries a pack already
// covers. Both act on an existing cache, so a missing -dir is an error
// rather than a directory to create.
func runCache(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		fmt.Fprintln(stderr, cacheUsage)
		return usageError{errors.New("cache: missing subcommand")}
	}
	sub := args[0]
	if sub != "pack" && sub != "gc" {
		fmt.Fprintln(stderr, cacheUsage)
		return usageError{fmt.Errorf("cache: unknown subcommand %q", sub)}
	}
	fs := flag.NewFlagSet("cache "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "cache directory (as given to -cache / CacheDir)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bside cache %s -dir <cachedir>\n", sub)
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
		return fmt.Errorf("cache %s: %w", sub, err)
	} else if !info.IsDir() {
		return fmt.Errorf("cache %s: %s is not a directory", sub, *dir)
	}
	st, err := cache.Open(*dir)
	if err != nil {
		return err
	}
	if sub == "gc" {
		gs, err := st.GC()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bside cache gc: %s: pruned %d loose entries already packed, kept %d\n",
			*dir, gs.PrunedLoose, gs.KeptLoose)
		return nil
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
