package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bside"
	"bside/internal/elff"
)

// minimalELF writes a tiny valid static image whose content (and
// therefore hash) varies with seed.
func minimalELF(t *testing.T, seed byte) []byte {
	t.Helper()
	data, err := elff.Write(elff.Spec{
		Kind:  elff.KindStatic,
		Base:  0x400000,
		Entry: 0x400000,
		Blob:  []byte{0x0f, 0x05, 0xc3, seed}, // syscall; ret; data
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fakeBackend is a counting Backend double. When gate is non-nil every
// analysis blocks on it (or the request context), which is what lets
// the tests hold analyses in flight deterministically.
type fakeBackend struct {
	calls  atomic.Int32
	gate   chan struct{}
	lookup map[string]*bside.Analysis
	stats  bside.CacheStats
	// batchErr, when set, is the batch-level error AnalyzeAllContext
	// returns after emitting every line.
	batchErr error
}

func (f *fakeBackend) AnalyzeBytesContext(ctx context.Context, data []byte) (*bside.Analysis, error) {
	f.calls.Add(1)
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, fmt.Errorf("analysis aborted: %w", ctx.Err())
		}
	}
	return &bside.Analysis{
		Syscalls: []uint64{0, 1, 60},
		Wrappers: 2,
		Imports:  []string{"read", "write"},
		Timings:  &bside.Timings{Decode: time.Millisecond, Total: time.Millisecond},
	}, nil
}

func (f *fakeBackend) AnalyzeAllContext(ctx context.Context, paths []string, opts bside.BatchOptions) ([]*bside.Analysis, error) {
	out := make([]*bside.Analysis, len(paths))
	for i, p := range paths {
		res := &bside.Analysis{Path: p, Syscalls: []uint64{uint64(i)}, Imports: []string{}}
		if strings.Contains(p, "bad") {
			res = &bside.Analysis{Path: p, Err: errors.New("boom")}
		}
		out[i] = res
		if opts.OnResult != nil {
			opts.OnResult(res)
		}
	}
	if f.batchErr != nil {
		return out, f.batchErr
	}
	return out, ctx.Err()
}

func (f *fakeBackend) Lookup(hash string) (*bside.Analysis, bool) {
	res, ok := f.lookup[hash]
	return res, ok
}

func (f *fakeBackend) CacheStats() bside.CacheStats { return f.stats }

func newTestServer(t *testing.T, conf Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(conf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postBytes(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAnalyzeEndpoint(t *testing.T) {
	fb := &fakeBackend{}
	_, ts := newTestServer(t, Config{Backend: fb})
	resp := postBytes(t, ts.URL+"/analyze", minimalELF(t, 1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if resp.Header.Get("X-Bside-Cached") != "false" {
		t.Fatal("fresh analysis marked cached")
	}
	if resp.Header.Get("X-Bside-Elapsed-Ms") == "" {
		t.Fatal("no elapsed header")
	}
	body, _ := io.ReadAll(resp.Body)
	want, _ := fb.AnalyzeBytesContext(context.Background(), nil)
	fb.calls.Store(1) // undo the helper call above for later asserts
	if !bytes.Equal(body, Render(want)) {
		t.Fatalf("body is not the canonical rendering:\n%s", body)
	}
	var parsed bside.Record
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if len(parsed.Names) != len(parsed.Syscalls) {
		t.Fatal("names not parallel to syscalls")
	}
}

func TestAnalyzeRejectsJunkAndWrongMethod(t *testing.T) {
	fb := &fakeBackend{}
	_, ts := newTestServer(t, Config{Backend: fb})
	resp := postBytes(t, ts.URL+"/analyze", []byte("not an elf"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk image: status %d", resp.StatusCode)
	}
	if fb.calls.Load() != 0 {
		t.Fatal("junk image reached the backend")
	}
	get, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", get.StatusCode)
	}
}

func TestUploadBound(t *testing.T) {
	fb := &fakeBackend{}
	_, ts := newTestServer(t, Config{Backend: fb, MaxUploadBytes: 64})
	resp := postBytes(t, ts.URL+"/analyze", make([]byte, 65))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d", resp.StatusCode)
	}
}

func TestSaturationAnswers429(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	s, ts := newTestServer(t, Config{Backend: fb, MaxInFlight: 1})

	// Occupy the only slot with a gated analysis.
	firstDone := make(chan int, 1)
	go func() {
		resp := postBytes(t, ts.URL+"/analyze", minimalELF(t, 1))
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return fb.calls.Load() == 1 })

	// A DIFFERENT image (no dedup) finds the service saturated.
	resp := postBytes(t, ts.URL+"/analyze", minimalELF(t, 2))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Batches obey the same gate.
	breq, _ := json.Marshal(batchRequest{Paths: []string{"/x"}})
	bresp := postBytes(t, ts.URL+"/batch", breq)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d", bresp.StatusCode)
	}

	close(fb.gate)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("in-flight request: status %d", code)
	}
	if m := s.MetricsSnapshot().Serve; m.Rejected != 2 || m.Analyses != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestDeadlineAnswers504(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})} // never opened: only ctx expiry returns
	s, ts := newTestServer(t, Config{Backend: fb, RequestTimeout: 50 * time.Millisecond})
	resp := postBytes(t, ts.URL+"/analyze", minimalELF(t, 1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Bside-Elapsed-Ms") == "" {
		t.Fatal("504 without elapsed header")
	}
	if m := s.MetricsSnapshot().Serve; m.Timeouts != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestConcurrentSameImageRunsOneAnalysis(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	s, ts := newTestServer(t, Config{Backend: fb, MaxInFlight: 8})
	img := minimalELF(t, 7)

	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postBytes(t, ts.URL+"/analyze", img)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Hold the gate until the leader is in the backend and every other
	// request has been fielded, then give the joiners a beat to park on
	// the flight before releasing.
	waitFor(t, func() bool {
		return fb.calls.Load() >= 1 && s.MetricsSnapshot().Serve.Requests == n
	})
	time.Sleep(50 * time.Millisecond)
	close(fb.gate)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	if c := fb.calls.Load(); c != 1 {
		t.Fatalf("backend ran %d analyses for %d identical posts", c, n)
	}
	if m := s.MetricsSnapshot().Serve; m.Deduped != n-1 || m.Analyses != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestHashLookup(t *testing.T) {
	cached := &bside.Analysis{Syscalls: []uint64{60}, Cached: true, Imports: []string{}}
	fb := &fakeBackend{lookup: map[string]*bside.Analysis{"abc123": cached}}
	s, ts := newTestServer(t, Config{Backend: fb})

	resp := postBytes(t, ts.URL+"/analyze?hash=abc123", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm lookup: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Bside-Cached") != "true" {
		t.Fatal("cache-served result not marked cached")
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(body, Render(cached)) {
		t.Fatalf("lookup body: %s", body)
	}
	if fb.calls.Load() != 0 {
		t.Fatal("hash lookup must not analyze")
	}

	miss := postBytes(t, ts.URL+"/analyze?hash=ffff", nil)
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("cold lookup: status %d", miss.StatusCode)
	}
	if m := s.MetricsSnapshot().Serve; m.Lookups != 2 || m.LookupHits != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

// batchLines posts paths to /batch and decodes the NDJSON stream by
// key, so a test reads the wire names rather than this package's
// struct tags.
func batchLines(t *testing.T, url string, paths []string) []map[string]json.RawMessage {
	t.Helper()
	req, _ := json.Marshal(batchRequest{Paths: paths})
	resp := postBytes(t, url+"/batch", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var lines []map[string]json.RawMessage
	for {
		var line map[string]json.RawMessage
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

func TestBatchStreamsNDJSON(t *testing.T) {
	fb := &fakeBackend{}
	_, ts := newTestServer(t, Config{Backend: fb})
	lines := batchLines(t, ts.URL, []string{"/bin/a", "/bin/bad", "/bin/c"})
	if len(lines) != 3 {
		t.Fatalf("lines: %d", len(lines))
	}
	for _, line := range lines {
		_, hasErr := line["error"]
		_, hasResult := line["result"]
		if bytes.Contains(line["path"], []byte("bad")) {
			if !hasErr || hasResult {
				t.Fatalf("bad path line: %v", line)
			}
		} else if hasErr || !hasResult {
			t.Fatalf("good path line: %v", line)
		}
	}

	// A batch-level failure after the stream started ends it with a
	// pathless line under the same error key.
	_, aborted := newTestServer(t, Config{Backend: &fakeBackend{batchErr: errors.New("batch aborted")}})
	lines = batchLines(t, aborted.URL, []string{"/bin/a"})
	last := lines[len(lines)-1]
	if len(lines) != 2 || string(last["path"]) != `""` || last["error"] == nil {
		t.Fatalf("aborted batch: %v, want one path line and a pathless error line", lines)
	}

	// Malformed batch bodies are rejected before any work.
	bad := postBytes(t, ts.URL+"/batch", []byte("{"))
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d", bad.StatusCode)
	}
}

func TestGracefulDrain(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	s, ts := newTestServer(t, Config{Backend: fb})

	if code := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	// A request in flight...
	done := make(chan int, 1)
	go func() {
		resp := postBytes(t, ts.URL+"/analyze", minimalELF(t, 1))
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return fb.calls.Load() == 1 })
	// ...survives the drain flip and completes normally, while the
	// health check immediately steers new traffic away.
	s.BeginDrain()
	if code := getStatus(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d", code)
	}
	close(fb.gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	fb := &fakeBackend{stats: bside.CacheStats{Hits: 3, MemoryHits: 2, MemoryEvictions: 1}}
	_, ts := newTestServer(t, Config{Backend: fb})
	// One analysis populates the stage histograms.
	resp := postBytes(t, ts.URL+"/analyze", minimalELF(t, 1))
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits != 3 || m.Cache.MemoryEvictions != 1 {
		t.Fatalf("cache stats not surfaced: %+v", m.Cache)
	}
	if m.Serve.Requests != 1 || m.Serve.Analyses != 1 {
		t.Fatalf("serve counters: %+v", m.Serve)
	}
	for _, stage := range []string{"decode", "wrappers", "identify", "stitch", "total"} {
		h, ok := m.StagesMs[stage]
		if !ok {
			t.Fatalf("stage %q missing from metrics", stage)
		}
		if stage == "total" && h.Count != 1 {
			t.Fatalf("total histogram count: %+v", h)
		}
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
