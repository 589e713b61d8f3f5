// Package serve implements the resident analysis service behind
// `bside serve`: an HTTP/JSON daemon holding one warm Analyzer — its
// library interfaces computed, its memory tier populated — so the
// fleet pays analysis latency once and every later request rides the
// caches.
//
// The API surface is small and operational:
//
//	POST /analyze        ELF image in the body → canonical JSON result
//	POST /analyze?hash=H no body: content-hash lookup against the
//	                     persistent cache — a warm hit never parses an
//	                     ELF, let alone decodes an instruction
//	POST /batch          {"paths":[...]} → NDJSON stream, one line per
//	                     binary in completion order
//	GET  /metrics        cache + admission counters, per-stage latency
//	                     histograms
//	GET  /healthz        liveness; 503 once draining
//
// Operational hardening, in the order a request meets it: admission
// control (a bounded in-flight semaphore; a full service answers 429
// with Retry-After instead of queueing unboundedly), per-request
// deadlines (the configured timeout rides the request context onto the
// symbolic-execution budget's wall clock, so an expired request stops
// mid-search and answers 504), and single-flight dedup (concurrent
// uploads of the same image hash run ONE analysis; the rest wait and
// share the bytes — abandoning waiters never poison each other, and the
// computation is canceled only when the last interested caller is
// gone).
//
// Every result, an /analyze body or a /batch line's "result", is the
// analysis's bside.Record, so a service response is byte-identical to
// a direct library analysis of the same image — an invariance the
// fuzzer's serve leg holds the daemon to.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bside"
	"bside/internal/elff"
	"bside/internal/metrics"
	"bside/internal/shared"
)

// Backend is the slice of the public analyzer the service consumes.
// *bside.Analyzer satisfies it; tests substitute counting fakes.
type Backend interface {
	AnalyzeBytesContext(ctx context.Context, data []byte) (*bside.Analysis, error)
	AnalyzeAllContext(ctx context.Context, paths []string, opts bside.BatchOptions) ([]*bside.Analysis, error)
	Lookup(hash string) (*bside.Analysis, bool)
	CacheStats() bside.CacheStats
}

// Config assembles a Server.
type Config struct {
	// Backend runs the analyses. Required.
	Backend Backend
	// MaxInFlight bounds concurrently running analyses (uploads and
	// batches; hash lookups are too cheap to gate). Requests beyond the
	// bound are answered 429 with Retry-After, not queued. 0 means 2×
	// GOMAXPROCS is NOT assumed here — the caller picks; non-positive
	// values fall back to DefaultMaxInFlight.
	MaxInFlight int
	// RequestTimeout bounds one analysis request's wall clock; it maps
	// onto the analysis budget's deadline, so an expired request aborts
	// mid-search and answers 504. 0 means no service-imposed deadline.
	RequestTimeout time.Duration
	// MaxUploadBytes bounds the /analyze request body. Non-positive
	// values fall back to DefaultMaxUploadBytes.
	MaxUploadBytes int64
}

// Defaults for non-positive Config knobs.
const (
	DefaultMaxInFlight    = 4
	DefaultMaxUploadBytes = 512 << 20
)

// Server is the resident service. Create with New, expose via Handler.
type Server struct {
	backend   Backend
	timeout   time.Duration
	maxUpload int64
	sem       chan struct{}
	draining  atomic.Bool
	flights   shared.Group[*bside.Analysis]

	requests   atomic.Uint64 // /analyze + /batch requests fielded
	analyses   atomic.Uint64 // analyses actually run by the backend
	deduped    atomic.Uint64 // requests that shared another's flight
	rejected   atomic.Uint64 // 429s issued by admission control
	timeouts   atomic.Uint64 // 504s issued on expired deadlines
	lookups    atomic.Uint64 // ?hash= probes fielded
	lookupHits atomic.Uint64 // ?hash= probes served from the cache
	panics     atomic.Uint64 // 500s from contained analysis panics
	malformed  atomic.Uint64 // 400s from images the parser rejected

	stages stageHistograms
}

// New assembles a Server from conf.
func New(conf Config) *Server {
	if conf.MaxInFlight <= 0 {
		conf.MaxInFlight = DefaultMaxInFlight
	}
	if conf.MaxUploadBytes <= 0 {
		conf.MaxUploadBytes = DefaultMaxUploadBytes
	}
	return &Server{
		backend:   conf.Backend,
		timeout:   conf.RequestTimeout,
		maxUpload: conf.MaxUploadBytes,
		sem:       make(chan struct{}, conf.MaxInFlight),
	}
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// BeginDrain flips the server into draining: /healthz answers 503 so
// load balancers stop routing here, while requests already in flight
// run to completion (the caller pairs this with http.Server.Shutdown,
// which waits for them).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// errSaturated marks an admission-control rejection.
var errSaturated = errors.New("serve: analysis capacity saturated")

// DegradedCacheIOErrors is how many durable-cache IO errors flip
// /healthz from "ok" to "degraded". Degraded is still HTTP 200 — the
// service keeps answering from the memory and pack tiers and by
// recomputation, so a broken cache disk must not get the instance
// pulled from rotation; the body is the operator's signal to go look
// at the disk.
const DegradedCacheIOErrors = 3

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if n := s.backend.CacheStats().CacheIOErrors; n >= DegradedCacheIOErrors {
		fmt.Fprintf(w, "degraded: %d cache IO errors (serving from memory/pack tiers and recomputation)\n", n)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	if hash := r.URL.Query().Get("hash"); hash != "" {
		s.handleLookup(w, hash)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxUpload))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("upload exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	start := time.Now()
	res, sharedFlight, err := s.analyzeBytes(ctx, data)
	if err != nil {
		s.writeAnalysisError(w, err, time.Since(start))
		return
	}
	if sharedFlight {
		s.deduped.Add(1)
	}
	if res.Timings != nil {
		s.stages.observe(res.Timings)
	}
	s.writeResult(w, res, time.Since(start))
}

// handleLookup serves the by-hash path: the runtime half of the
// decoupled design. A hit touches only the cache — no upload, no ELF
// parse, no decoding — and reports Cached via header like any other
// cache-served result.
func (s *Server) handleLookup(w http.ResponseWriter, hash string) {
	s.lookups.Add(1)
	start := time.Now()
	res, ok := s.backend.Lookup(hash)
	if !ok {
		http.Error(w, "no cached analysis for hash", http.StatusNotFound)
		return
	}
	s.lookupHits.Add(1)
	s.writeResult(w, res, time.Since(start))
}

// errBadImage wraps an identity-parse failure for status mapping.
type errBadImage struct{ err error }

func (e errBadImage) Error() string { return e.err.Error() }

// analyzeBytes runs one upload through dedup and admission. The cheap
// identity parse keys the single flight: N concurrent posts of the
// same bytes run one analysis. An image the frontend cannot even
// identify is rejected here, before consuming an in-flight slot.
func (s *Server) analyzeBytes(ctx context.Context, data []byte) (*bside.Analysis, bool, error) {
	id, err := elff.ReadIdentity(data)
	if err != nil {
		return nil, false, errBadImage{err}
	}
	return s.flights.Do(ctx, id.Hash, func(cctx context.Context) (*bside.Analysis, error) {
		// The flight's context is detached from any single request;
		// re-impose the service deadline so a deduped analysis is still
		// bounded.
		if s.timeout > 0 {
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(cctx, s.timeout)
			defer cancel()
		}
		return s.analyzeOne(cctx, data)
	})
}

// analyzeOne is the admission-controlled backend call: a free in-flight
// slot or an immediate errSaturated — the service never queues work it
// cannot start.
func (s *Server) analyzeOne(ctx context.Context, data []byte) (*bside.Analysis, error) {
	select {
	case s.sem <- struct{}{}:
	default:
		return nil, errSaturated
	}
	defer func() { <-s.sem }()
	res, err := s.backend.AnalyzeBytesContext(ctx, data)
	if err == nil {
		s.analyses.Add(1)
	}
	return res, err
}

// writeAnalysisError maps an analysis failure onto the status codes
// operators alarm on: 429 for admission rejections (with Retry-After,
// so well-behaved clients back off instead of hammering), 500 for
// contained analysis panics (our fault, counted in panics_total — the
// daemon itself survived and says so), 504 for expired deadlines (the
// elapsed wall clock rides a header — partial per-stage timings do not
// survive the abort), 400 for images the frontend rejects (the
// client's fault, counted in malformed_total), 422 for analyses that
// failed on their merits.
func (s *Server) writeAnalysisError(w http.ResponseWriter, err error, elapsed time.Duration) {
	var pe *bside.PanicError
	switch {
	case errors.Is(err, errSaturated):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.As(err, &pe):
		// A panic the fault boundary contained: this request's analysis
		// crashed but the process did not. The body names the stage
		// without the stack (that is diagnostic payload, not response
		// text); the counter is what operators alarm on.
		s.panics.Add(1)
		setElapsed(w, elapsed)
		http.Error(w, fmt.Sprintf("analysis panicked in stage %s", pe.Stage), http.StatusInternalServerError)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		setElapsed(w, elapsed)
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client is gone; nothing readable can be written. 499 is
		// nginx's convention for exactly this.
		w.WriteHeader(499)
	case errors.As(err, &errBadImage{}), errors.Is(err, bside.ErrMalformed):
		s.malformed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	}
}

func setElapsed(w http.ResponseWriter, elapsed time.Duration) {
	w.Header().Set("X-Bside-Elapsed-Ms", strconv.FormatFloat(float64(elapsed)/float64(time.Millisecond), 'f', 3, 64))
}

// writeResult writes the canonical body. Everything request-scoped —
// cache provenance, wall clock — travels in headers, keeping the body
// byte-identical to a direct library analysis of the same image (the
// fuzzer's serve leg compares exactly these bytes).
func (s *Server) writeResult(w http.ResponseWriter, res *bside.Analysis, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Bside-Cached", strconv.FormatBool(res.Cached))
	setElapsed(w, elapsed)
	_, _ = w.Write(Render(res))
}

// batchRequest is the /batch input.
type batchRequest struct {
	// Paths are server-side filesystem paths to analyze.
	Paths []string `json:"paths"`
	// Jobs bounds the batch's own worker pool (0 = GOMAXPROCS).
	Jobs int `json:"jobs,omitempty"`
}

// batchLine is one NDJSON line of the /batch response stream, emitted
// per binary in completion order.
type batchLine struct {
	Path   string        `json:"path"`
	Result *bside.Record `json:"result,omitempty"`
	Cached bool          `json:"cached,omitempty"`
	Error  string        `json:"error,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	var req batchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad batch request: %v", err), http.StatusBadRequest)
		return
	}
	// A batch occupies one in-flight slot however many paths it holds —
	// its internal pool is bounded by Jobs, and admission control exists
	// to bound concurrent *requests*, not binaries.
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, errSaturated.Error(), http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.sem }()

	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Results stream as they complete (BatchOptions.OnResult serializes
	// the calls); the HTTP status is already committed by the first
	// line, so per-binary failures travel in-band on their lines.
	_, err := s.backend.AnalyzeAllContext(ctx, req.Paths, bside.BatchOptions{
		Jobs: req.Jobs,
		OnResult: func(res *bside.Analysis) {
			line := batchLine{Path: res.Path}
			if res.Err != nil {
				line.Error = res.Err.Error()
			} else {
				line.Result = res.Record()
				line.Cached = res.Cached
				s.analyses.Add(1)
				if res.Timings != nil {
					s.stages.observe(res.Timings)
				}
			}
			_ = enc.Encode(line)
			if flusher != nil {
				flusher.Flush()
			}
		},
	})
	if err != nil {
		// Batch-level failure after the stream started: emit a final
		// pathless error line so the client sees a cause, not just EOF.
		_ = enc.Encode(batchLine{Error: err.Error()})
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// Metrics is the /metrics document.
type Metrics struct {
	// Cache is the backend's cache traffic (including the memory tier's
	// LRU eviction counters and gauges).
	Cache bside.CacheStats `json:"cache"`
	// Serve is the service's own request accounting.
	Serve ServeMetrics `json:"serve"`
	// StagesMs holds one latency histogram per analysis stage, in
	// milliseconds, over the analyses this process ran.
	StagesMs map[string]metrics.Snapshot `json:"stages_ms"`
}

// ServeMetrics is the admission/dedup counter block of Metrics.
type ServeMetrics struct {
	Requests   uint64 `json:"requests"`
	Analyses   uint64 `json:"analyses"`
	Deduped    uint64 `json:"deduped"`
	Rejected   uint64 `json:"rejected"`
	Timeouts   uint64 `json:"timeouts"`
	Lookups    uint64 `json:"lookups"`
	LookupHits uint64 `json:"lookup_hits"`
	// PanicsTotal counts analyses that panicked and were contained —
	// every one answered 500 while the daemon kept serving. Nonzero
	// means an input crashed analysis code; climbing means someone is
	// feeding the service poison (or a real bug is loose).
	PanicsTotal uint64 `json:"panics_total"`
	// MalformedTotal counts uploads rejected as structurally invalid
	// ELF images (400s). The hostile-input counterpart to PanicsTotal:
	// these the parser refused on purpose.
	MalformedTotal uint64 `json:"malformed_total"`
	InFlight       int    `json:"in_flight"`
	Draining       bool   `json:"draining"`
}

// MetricsSnapshot assembles the /metrics document (exported for tests;
// the handler serves exactly this).
func (s *Server) MetricsSnapshot() Metrics {
	return Metrics{
		Cache: s.backend.CacheStats(),
		Serve: ServeMetrics{
			Requests:       s.requests.Load(),
			Analyses:       s.analyses.Load(),
			Deduped:        s.deduped.Load(),
			Rejected:       s.rejected.Load(),
			Timeouts:       s.timeouts.Load(),
			Lookups:        s.lookups.Load(),
			LookupHits:     s.lookupHits.Load(),
			PanicsTotal:    s.panics.Load(),
			MalformedTotal: s.malformed.Load(),
			InFlight:       len(s.sem),
			Draining:       s.draining.Load(),
		},
		StagesMs: s.stages.snapshot(),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.MetricsSnapshot())
}
