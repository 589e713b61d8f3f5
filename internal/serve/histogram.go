package serve

import (
	"bside"
	"bside/internal/metrics"
)

// stageHistograms tracks one histogram per pipeline stage plus the
// end-to-end total — the service's live rendering of the paper's
// per-stage cost table.
type stageHistograms struct {
	decode   metrics.Histogram
	wrappers metrics.Histogram
	identify metrics.Histogram
	stitch   metrics.Histogram
	total    metrics.Histogram
}

func (sh *stageHistograms) observe(t *bside.Timings) {
	sh.decode.Observe(t.Decode)
	sh.wrappers.Observe(t.Wrappers)
	sh.identify.Observe(t.Identify)
	sh.stitch.Observe(t.Stitch)
	sh.total.Observe(t.Total)
}

func (sh *stageHistograms) snapshot() map[string]metrics.Snapshot {
	return map[string]metrics.Snapshot{
		"decode":   sh.decode.Snapshot(),
		"wrappers": sh.wrappers.Snapshot(),
		"identify": sh.identify.Snapshot(),
		"stitch":   sh.stitch.Snapshot(),
		"total":    sh.total.Snapshot(),
	}
}
