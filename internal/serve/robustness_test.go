package serve

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bside"
	"bside/internal/elff"
	"bside/internal/faults"
	"bside/internal/testbin"
)

// readCorpus loads one checked-in malformed image from the elff
// package's corpus.
func readCorpus(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "elff", "testdata", "malformed", name))
	if err != nil {
		t.Fatalf("corpus unavailable: %v", err)
	}
	return data
}

// TestMalformedUploadAnswers400 is the satellite e2e: a corrupt image
// posted to a daemon backed by the real analyzer answers 400, bumps
// malformed_total, and leaves the daemon healthy and able to serve the
// next well-formed upload.
func TestMalformedUploadAnswers400(t *testing.T) {
	s, ts := newTestServer(t, Config{Backend: bside.NewAnalyzer(bside.Options{})})

	// Two corruption depths: garbage the identity probe already rejects,
	// and a structurally-plausible header (the allocation bomb) that
	// only the full parse refuses. Both are the client's fault.
	for _, name := range []string{"truncated-header.elf", "memsz-bomb.elf"} {
		resp := postBytes(t, ts.URL+"/analyze", readCorpus(t, name))
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	if got := s.MetricsSnapshot().Serve.MalformedTotal; got != 2 {
		t.Fatalf("malformed_total = %d, want 2", got)
	}
	if s.MetricsSnapshot().Serve.PanicsTotal != 0 {
		t.Fatal("malformed input must not count as a panic")
	}

	if status := getStatus(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("daemon unhealthy after malformed uploads: %d", status)
	}
	resp := postBytes(t, ts.URL+"/analyze", minimalELF(t, 7))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean upload after garbage: status %d", resp.StatusCode)
	}

	// A valid image the analyzer cannot model (bside.ErrLayout) is not
	// the client's fault: 422, and malformed_total does not move.
	resp = postBytes(t, ts.URL+"/analyze", testbin.TwoSegments(minimalELF(t, 8)))
	resp.Body.Close()
	if got := s.MetricsSnapshot().Serve.MalformedTotal; resp.StatusCode != http.StatusUnprocessableEntity || got != 2 {
		t.Fatalf("two-segment upload: status %d, malformed_total %d; want 422 and 2", resp.StatusCode, got)
	}
}

// TestContainedPanicAnswers500 drives an injected stage panic through
// the real analyzer: the request answers 500 naming the stage (no
// stack in the body), panics_total increments, and the daemon keeps
// serving other images.
func TestContainedPanicAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{Backend: bside.NewAnalyzer(bside.Options{})})

	poison := minimalELF(t, 31)
	pb, err := elff.Read(poison)
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(faults.Rule{Point: faults.Stage, Match: pb.Hash, Panic: true})
	defer restore()

	resp := postBytes(t, ts.URL+"/analyze", poison)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Fatalf("body does not name the failure: %s", body)
	}
	if strings.Contains(string(body), "goroutine") {
		t.Fatalf("stack leaked into the response body: %s", body)
	}
	if got := s.MetricsSnapshot().Serve.PanicsTotal; got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}

	// The fault is keyed by the poison's hash: a different image sails
	// through on the same daemon, with the rule still armed.
	resp = postBytes(t, ts.URL+"/analyze", minimalELF(t, 32))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean upload while rule armed: status %d", resp.StatusCode)
	}
	if status := getStatus(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("daemon unhealthy after contained panic: %d", status)
	}
}

// TestHealthzDegradedOnCacheIOErrors: repeated durable-cache failures
// flip /healthz to degraded — still HTTP 200, because the service
// keeps answering from the memory tier and recomputation; the body is
// the operator signal.
func TestHealthzDegradedOnCacheIOErrors(t *testing.T) {
	backend, err := bside.NewAnalyzerErr(bside.Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: backend})

	probe := func() (int, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if status, body := probe(); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthy daemon: %d %q", status, body)
	}

	restore := faults.Activate(
		faults.Rule{Point: faults.CacheRead, Err: errors.New("injected: disk gone")},
		faults.Rule{Point: faults.CacheWrite, Err: errors.New("injected: disk gone")},
	)
	defer restore()

	// Each analysis probes and stores several cache entries (program
	// probe, budget-verdict probe, summary store); two uploads comfortably
	// clear the degradation threshold — and both must still succeed,
	// because a broken cache degrades to recomputation, never to 500s.
	for seed := byte(40); seed < 42; seed++ {
		resp := postBytes(t, ts.URL+"/analyze", minimalELF(t, seed))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload with broken cache: status %d", resp.StatusCode)
		}
	}
	if n := backend.CacheStats().CacheIOErrors; n < DegradedCacheIOErrors {
		t.Fatalf("cache_io_errors = %d, want >= %d", n, DegradedCacheIOErrors)
	}
	status, body := probe()
	if status != http.StatusOK {
		t.Fatalf("degraded must stay 200 (load balancers!), got %d", status)
	}
	if !strings.Contains(body, "degraded") {
		t.Fatalf("healthz body: %q, want degraded", body)
	}
}
