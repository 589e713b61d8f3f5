package bench

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"bside"
	"bside/internal/cache"
	"bside/internal/elff"
	"bside/internal/guard"
	"bside/internal/ident"
	"bside/internal/pipeline"
	"bside/internal/shared"
)

// tracedAnalyzer is what the traced replay analyzes with:
// bside.Analyzer's file, byte and hash entry points recomposed from the
// public layer calls, in the order bside's analyzeDataInner makes them,
// with a span around each call. It stands in for the public analyzer — including behind
// the serve handler — and must answer byte for byte what the public
// analyzer answers; every traced run checks that item by item against
// an untraced replay of the same inputs. It covers what the workloads
// use: no dlopen-style modules.
type tracedAnalyzer struct {
	inner *shared.Analyzer
	store *cache.Store
	rec   *Recorder

	mu     sync.Mutex
	counts map[string]float64
}

// newTracedAnalyzer mirrors bside.NewAnalyzer's wiring of opts.
func newTracedAnalyzer(opts bside.Options, rec *Recorder) (*tracedAnalyzer, error) {
	dir := opts.LibraryDir
	load := func(name string) (*elff.Binary, error) {
		if dir == "" {
			return nil, fmt.Errorf("bside: dependency %q needed but no LibraryDir configured", name)
		}
		return elff.OpenBinary(filepath.Join(dir, name), opts.DisableMmap)
	}
	inner := shared.NewAnalyzer(load, ident.Config{ResolverLayers: opts.ResolverLayers})
	inner.MaxCFGInsns = opts.MaxCFGInstructions
	inner.Workers = opts.IntraWorkers
	inner.Timeout = opts.Timeout
	inner.DisableFuncMemo = opts.DisableFuncMemo
	t := &tracedAnalyzer{inner: inner, rec: rec, counts: make(map[string]float64)}
	if opts.CacheDir != "" {
		st, err := cache.Open(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		if opts.PackPath != "" {
			if err := st.AttachPack(opts.PackPath); err != nil {
				return nil, err
			}
		}
		inner.Cache, t.store = st, st
	}
	return t, nil
}

// AnalyzeFileContext mirrors bside.Analyzer.AnalyzeFileContext.
func (t *tracedAnalyzer) AnalyzeFileContext(ctx context.Context, path string) (*bside.Analysis, error) {
	root := t.rec.Start("frontend", 0, path)
	defer t.rec.End(root)
	sp := t.rec.Start("elff.open", root, path)
	im, err := elff.OpenMapped(path)
	t.rec.End(sp)
	if err != nil {
		return nil, err
	}
	res, rerr := t.analyzeData(ctx, im.Data, path, true, root)
	if cerr := im.Close(); cerr != nil && rerr == nil {
		rerr = fmt.Errorf("elff: %s: %w", path, cerr)
	}
	if rerr != nil {
		return nil, rerr
	}
	res.Path = path
	return res, nil
}

// AnalyzeBytesContext mirrors bside.Analyzer.AnalyzeBytesContext.
func (t *tracedAnalyzer) AnalyzeBytesContext(ctx context.Context, data []byte) (*bside.Analysis, error) {
	root := t.rec.Start("frontend", 0, "")
	defer t.rec.End(root)
	return t.analyzeData(ctx, data, "", false, root)
}

// Lookup mirrors bside.Analyzer.Lookup for a module-free analyzer.
func (t *tracedAnalyzer) Lookup(hash string) (*bside.Analysis, bool) {
	sp := t.rec.Start("cache.lookup", 0, hash)
	defer t.rec.End(sp)
	if t.store == nil {
		return nil, false
	}
	sum, ok := t.inner.CachedSummaryByHash(hash)
	if !ok {
		return nil, false
	}
	return cachedAnalysis(sum), true
}

// AnalyzeAllContext completes the serve backend interface; batch
// requests are not part of any workload.
func (t *tracedAnalyzer) AnalyzeAllContext(context.Context, []string, bside.BatchOptions) ([]*bside.Analysis, error) {
	return nil, errors.New("bench: /batch is not part of the traced replay")
}

// CacheStats reports the store traffic the serve handler reads.
func (t *tracedAnalyzer) CacheStats() bside.CacheStats {
	var out bside.CacheStats
	if t.store != nil {
		st := t.store.Stats()
		out.Hits, out.Misses, out.Stores = st.Hits, st.Misses, st.Stores
		out.MemoryHits, out.PackHits, out.CacheIOErrors = st.MemoryHits, st.PackHits, st.IOErrors
	}
	return out
}

func (t *tracedAnalyzer) analyzeData(ctx context.Context, data []byte, path string, alias bool, root int32) (*bside.Analysis, error) {
	return guard.Capture1("frontend", "", func() (*bside.Analysis, error) {
		return t.analyzeDataInner(ctx, data, path, alias, root)
	})
}

func (t *tracedAnalyzer) analyzeDataInner(ctx context.Context, data []byte, path string, alias bool, root int32) (*bside.Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bside: analysis aborted: %w", err)
	}
	item := path
	probed := false
	hash := ""
	if t.store != nil {
		sp := t.rec.Start("elff.identity", root, item)
		id, err := elff.ReadIdentity(data)
		t.rec.End(sp)
		if err == nil {
			probed = true
			hash = id.Hash
			if item == "" {
				item = hash
				t.rec.SetItem(root, item)
				t.rec.SetItem(sp, item)
			}
			sp := t.rec.Start("cache.probe", root, item)
			sum, ok := t.inner.CachedSummary(id.Hash, id.Needed)
			t.rec.End(sp)
			if ok {
				return cachedAnalysis(sum), nil
			}
		}
	}
	sp := t.rec.Start("elff.parse", root, item)
	var bin *elff.Binary
	var err error
	if alias {
		bin, err = elff.ReadPrehashedAlias(data, hash)
	} else {
		bin, err = elff.ReadPrehashed(data, hash)
	}
	t.rec.End(sp)
	if err != nil {
		if path != "" {
			return nil, fmt.Errorf("elff: %s: %w", path, err)
		}
		return nil, err
	}
	bin.Path = path
	res, err := t.analyze(ctx, bin, probed, root, item)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("bside: analysis aborted: %w (%v)", cerr, err)
		}
		return nil, err
	}
	return res, nil
}

// analyze mirrors bside.Analyzer.analyze without modules.
func (t *tracedAnalyzer) analyze(ctx context.Context, bin *elff.Binary, probed bool, root int32, item string) (*bside.Analysis, error) {
	if t.store == nil {
		sp := t.rec.Start("shared.compute", root, item)
		rep, err := t.inner.ProgramCtx(ctx, bin)
		t.rec.End(sp)
		if err != nil {
			return nil, err
		}
		t.stages(sp, item, rep)
		return &bside.Analysis{
			Syscalls: rep.Syscalls,
			FailOpen: rep.FailOpen,
			Wrappers: len(rep.Main.Wrappers),
			Imports:  rep.Main.ReachableImports,
			Timings:  timings(rep.Timings),
		}, nil
	}
	if !probed {
		sp := t.rec.Start("cache.probe", root, item)
		sum, ok := t.inner.CachedSummary(bin.Hash, bin.Needed)
		t.rec.End(sp)
		if ok {
			return cachedAnalysis(sum), nil
		}
	}
	sp := t.rec.Start("shared.compute", root, item)
	sum, rep, err := t.inner.ComputeSummaryCtx(ctx, bin)
	t.rec.End(sp)
	if err != nil {
		return nil, err
	}
	out := &bside.Analysis{
		Syscalls: sum.Syscalls,
		FailOpen: sum.FailOpen,
		Wrappers: sum.Wrappers,
		Imports:  sum.Imports,
		Cached:   sum.Cached,
	}
	if rep != nil {
		t.stages(sp, item, rep)
		out.Timings = timings(rep.Timings)
	}
	return out, nil
}

// stageNames are the compute span's children, in pipeline order.
var stageNames = []string{"cfg.decode", "ident.wrappers", "ident.identify", "shared.stitch"}

// stages lays the report's stage timings out as children of the
// compute span and counts the work the report describes.
func (t *tracedAnalyzer) stages(parent int32, item string, rep *shared.ProgramReport) {
	tm := rep.Timings
	t.rec.Lay(parent, item, stageNames, []time.Duration{
		tm.Get(pipeline.StageDecode), tm.Get(pipeline.StageWrappers),
		tm.Get(pipeline.StageIdentify), tm.Get(pipeline.StageStitch),
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts["cfg.blocks"] += float64(rep.Graph.Stats.NumBlocks)
	t.counts["ident.sites"] += float64(rep.Main.Stats.SyscallSites)
	t.counts["ident.blocks_explored"] += float64(rep.Main.Stats.BlocksExplored)
	t.counts["shared.imports"] += float64(len(rep.Main.ReachableImports))
}

func (t *tracedAnalyzer) workCounts() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

func cachedAnalysis(sum *shared.Summary) *bside.Analysis {
	return &bside.Analysis{
		Syscalls: sum.Syscalls,
		FailOpen: sum.FailOpen,
		Wrappers: sum.Wrappers,
		Imports:  sum.Imports,
		Cached:   true,
	}
}

// timings mirrors bside's conversion of the pipeline's stage record.
func timings(t pipeline.Timings) *bside.Timings {
	return &bside.Timings{
		Decode:   t.Get(pipeline.StageDecode),
		Wrappers: t.Get(pipeline.StageWrappers),
		Identify: t.Get(pipeline.StageIdentify),
		Stitch:   t.Get(pipeline.StageStitch),
		Total:    t.Total(),
	}
}
