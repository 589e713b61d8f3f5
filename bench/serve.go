package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bside/internal/cache"
	"bside/internal/serve"
)

// serveWorkload is serve-mixed: an open loop with fixed-interval
// arrivals against one fresh `bside serve` process, over nproc client
// connections. 90% of requests replay a warm hash (POST
// /analyze?hash=), drawn Zipf(s = 1.1) over the tree's decided
// binaries, whose analyses the set-up compacted into a pack — a first
// touch is a pack hit, later ones memory hits. 10% upload a binary the
// service has never seen. Latency runs from each request's due time, so
// a request stuck behind a slow upload on a busy connection counts its
// wait.
type serveWorkload struct {
	r       *runner
	tree    *tree
	pack    string
	dir     string
	hashes  []string          // decided tree binaries, in Zipf rank order
	byHash  map[string]*input // tree inputs by content hash
	ref     map[string]string // hash → the cold pass's rendered answer
	uploads []*input
	servers int
}

// The load schedule, as shares of the measuring time.
const (
	lowRate, highRate = 300, 1000 // req/s
	lowShare          = 0.55
	highShare         = 0.25
	bisectSteps       = 5
	stepShare         = 0.04 // each bisection step
	uploadEvery       = 10   // every tenth request is an upload
	zipfS             = 1.1
	sloP99Ms          = 50
)

func (w *serveWorkload) seconds(share float64) time.Duration {
	return time.Duration(share * w.r.cfg.Seconds * float64(time.Second))
}

func (w *serveWorkload) setup(dir string) error {
	t, err := genTree(w.r.cfg.Seed, dir, w.r.cfg.scale.treeBinaries)
	if err != nil {
		return err
	}
	w.tree, w.dir = t, dir
	cacheDir := filepath.Join(dir, "cache")
	cold, err := w.r.spawn(job{Kind: "sweep", Root: t.Root, Libs: t.Libs, Cache: cacheDir, Jobs: w.r.nproc})
	if err != nil {
		return err
	}
	ref, err := w.r.reference(cold.Items, t.Inputs)
	if err != nil {
		return err
	}
	st, err := cache.Open(cacheDir)
	if err != nil {
		return err
	}
	cs, err := st.Compact()
	if err != nil {
		return err
	}
	w.pack = cs.PackPath
	w.ref = make(map[string]string)
	w.byHash = make(map[string]*input)
	w.hashes = w.hashes[:0]
	ids := make([]string, 0, len(ref))
	for id := range ref {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		in := t.Inputs[id]
		w.byHash[in.Hash] = in
		if it := ref[id]; it.Status == Decided {
			w.ref[in.Hash] = it.Result
			w.hashes = append(w.hashes, in.Hash)
		}
	}
	rand.New(rand.NewSource(w.r.cfg.Seed)).Shuffle(len(w.hashes), func(i, j int) {
		w.hashes[i], w.hashes[j] = w.hashes[j], w.hashes[i]
	})
	// Enough never-seen binaries for the longest schedule the run can
	// take: every bisection step at the high rate.
	most := float64(lowRate)*w.seconds(lowShare).Seconds() +
		float64(highRate)*(w.seconds(highShare)+bisectSteps*w.seconds(stepShare)).Seconds()
	s := w.stream()
	for i := 0; i < int(most)+1; i++ {
		s.next()
	}
	w.uploads, err = genUploads(w.r.cfg.Seed, s.uploads)
	return err
}

// request is one scheduled request: a warm hash replay, or an upload
// of in's image.
type request struct {
	in     *input
	upload bool
}

// stream draws the seeded request sequence; every run and replay of
// one seed sends the same requests in the same order.
type stream struct {
	zipf    *rand.Zipf
	w       *serveWorkload
	drawn   int
	uploads int
}

func (w *serveWorkload) stream() *stream {
	rng := rand.New(rand.NewSource(w.r.cfg.Seed))
	return &stream{zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(w.hashes)-1)), w: w}
}

// next draws one request. Uploads come from the pool in order; the
// set-up sizes the pool by drawing the longest schedule, so it only
// wraps while the set-up itself counts.
func (s *stream) next() request {
	s.drawn++
	if s.drawn%uploadEvery == 0 {
		s.uploads++
		if len(s.w.uploads) == 0 {
			return request{upload: true}
		}
		return request{in: s.w.uploads[(s.uploads-1)%len(s.w.uploads)], upload: true}
	}
	return request{in: s.w.byHash[s.w.hashes[s.zipf.Uint64()]]}
}

// sample is one request's life, in time since its phase began.
type sample struct {
	req             request
	due, sent, done time.Duration
	slept           bool // the connection was idle before the due time
	status          int
	body            []byte
	backendMs       float64
	err             error
}

func (s *sample) latencyMs() float64 { return ms(s.done - s.due) }

// item is the sample as the checker and the replay comparison see it:
// a warm replay is identified by its hash, an upload by its input.
func (s *sample) item() Item {
	it := Item{ID: s.req.in.Hash, Ms: s.backendMs}
	if s.req.upload {
		it.ID = s.req.in.ID
	}
	switch {
	case s.err != nil:
		it.Status, it.Result = Failed, s.err.Error()
	case s.status == http.StatusOK:
		var body serve.ResultBody
		if err := json.Unmarshal(s.body, &body); err != nil {
			it.Status, it.Result = Failed, fmt.Sprintf("bad body: %v", err)
			break
		}
		it.Status, it.Result = Decided, string(s.body)
		it.Syscalls, it.FailOpen = body.Syscalls, body.FailOpen
	case s.status == http.StatusUnprocessableEntity && classifyErr(string(s.body)) == Undecided:
		it.Status, it.Result = Undecided, string(s.body)
	default:
		it.Status, it.Result = Failed, fmt.Sprintf("HTTP %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	return it
}

// phase is one load step's outcome.
type phase struct {
	name    string
	dur     time.Duration
	samples []sample
	failed  int
}

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i := range p.samples {
		out[i] = p.samples[i].latencyMs()
	}
	return out
}

// meetsSLO: p99 latency within the limit, nothing failed, and the
// client queue did not grow.
func (p *phase) meetsSLO() bool {
	due := make([]time.Duration, len(p.samples))
	sent := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		due[i], sent[i] = s.due, s.sent
	}
	return Percentile(p.latencies(), 99) <= sloP99Ms && p.failed == 0 && !backlogGrew(due, sent, p.dur)
}

// client is the load generator's side: nproc persistent connections.
type client struct {
	http  *http.Client
	base  string
	conns int
	rec   *Recorder
}

func newClient(addr string, conns int, rec *Recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: time.Minute}, base: "http://" + addr, conns: conns, rec: rec}
}

// run sends rate×dur requests from s on a fixed schedule. Each
// connection takes the next request, waits for its due time if it is
// early, and sends it; when every connection is busy, due requests
// queue on the client.
func (c *client) run(name string, s *stream, rate float64, dur time.Duration) *phase {
	p := &phase{name: name, dur: dur, samples: make([]sample, int(rate*dur.Seconds()))}
	for i := range p.samples {
		p.samples[i].req = s.next()
		p.samples[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < c.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.samples) {
					return
				}
				c.send(&p.samples[i], start)
			}
		}()
	}
	wg.Wait()
	p.countFailed()
	return p
}

func (p *phase) countFailed() {
	for i := range p.samples {
		if p.samples[i].item().Status == Failed {
			p.failed++
		}
	}
}

func (c *client) send(s *sample, start time.Time) {
	if wait := s.due - time.Since(start); wait > 0 {
		s.slept = true
		time.Sleep(wait)
	}
	s.sent = time.Since(start)
	defer func() { s.done = time.Since(start) }()
	url, body := c.base+"/analyze", []byte(nil)
	if s.req.upload {
		body = s.req.in.Data
	} else {
		url += "?hash=" + s.req.in.Hash
	}
	sp := c.rec.Start("client.roundtrip", 0, s.req.in.Hash)
	defer c.rec.End(sp)
	resp, err := c.http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	s.body, s.err = io.ReadAll(resp.Body)
	s.backendMs, _ = strconv.ParseFloat(resp.Header.Get("X-Bside-Elapsed-Ms"), 64)
}

// startServer launches a fresh serve process on the set-up's pack with
// an empty loose cache of its own, so uploads are never seen before.
func (w *serveWorkload) startServer(traced bool) (*server, error) {
	w.servers++
	return startServer(w.r.ctx, w.r.cfg.Self, job{
		Kind: "serve", Libs: w.tree.Libs, Pack: w.pack, Workers: -1, Traced: traced,
		Cache: filepath.Join(w.dir, fmt.Sprintf("serve%d", w.servers)),
	}, w.r.cfg.Log)
}

// judge checks every sample: warm hashes must answer exactly what the
// cold pass computed, uploads must contain their truth.
func (w *serveWorkload) judge(p *phase) []Item {
	items := make([]Item, len(p.samples))
	for i := range p.samples {
		s := &p.samples[i]
		it := s.item()
		w.r.add(it, s.req.in)
		if !s.req.upload && it.Status == Decided {
			w.r.check.Expect(it.ID, w.ref[it.ID], it.Result)
		}
		items[i] = it
	}
	return items
}

func (w *serveWorkload) measure() error {
	srv, err := w.startServer(false)
	if err != nil {
		return err
	}
	c := newClient(srv.Addr, w.r.nproc, nil)
	s := w.stream()
	low := c.run("low", s, lowRate, w.seconds(lowShare))
	high := c.run("high", s, highRate, w.seconds(highShare))
	phases := []*phase{low, high}
	// max_rps_slo: bisect between the fixed rates for the highest rate
	// that meets the SLO; the result is the highest rate that passed.
	lo, hi := 0.0, float64(lowRate)
	switch {
	case high.meetsSLO():
		lo, hi = highRate, highRate
	case low.meetsSLO():
		lo, hi = lowRate, highRate
	}
	for i := 0; i < bisectSteps && lo < hi; i++ {
		mid := (lo + hi) / 2
		p := c.run(fmt.Sprintf("step%d", i+1), s, mid, w.seconds(stepShare))
		phases = append(phases, p)
		if p.meetsSLO() {
			lo = mid
		} else {
			hi = mid
		}
	}
	res, err := srv.stop()
	if err != nil {
		return err
	}
	// The fixed-rate phases send the same requests on every run of a
	// seed; the bisection's rates depend on timing, so quality is
	// measured before its steps are checked.
	for i, p := range phases {
		if i == 2 {
			w.r.putQuality()
		}
		w.judge(p)
	}

	// Capacity: the rate at which the connections would never idle,
	// from the mean time a request holds one (send to response) at the
	// fixed rates. The bisection's max_rps_slo answers the same question
	// under the latency limit, but its pass/fail steps swing with a
	// handful of slow uploads; this mean does not.
	var held []float64
	for _, p := range []*phase{low, high} {
		for _, s := range p.samples {
			held = append(held, (s.done - s.sent).Seconds())
		}
	}
	w.r.put("throughput_per_s", float64(w.r.nproc)/mean(held), len(held))
	w.r.annotate("throughput_per_s", "capacity: connections / mean service time")
	// Both declared latencies are taken at the low rate, where most of
	// the run's time goes; near the high rate the service is close
	// enough to saturation that its tail multiplies the machine's own
	// speed swings. The median runs from the due time. The tail is the
	// response time (send to response): from the due time it also holds
	// the wait for one of the client's few connections, which depends
	// on whether slow uploads happened to occupy them all and swung the
	// p99 further between runs of one seed. Both due-time tails are
	// reported below as details.
	var response []float64
	for _, s := range low.samples {
		response = append(response, ms(s.done-s.sent))
	}
	w.r.put("latency_p50_ms", Percentile(low.latencies(), 50), len(low.samples))
	w.r.annotate("latency_p50_ms", "low rate, from due time")
	w.r.putTail(response, 99, "response time at low rate")
	w.r.put("peak_rss_mb", res.RSSMB, 1)

	for _, p := range []*phase{low, high} {
		lat := p.latencies()
		w.r.note(p.name+".latency_p50_ms", "ms", Percentile(lat, 50), len(lat))
		w.r.note(p.name+".latency_p99_ms", "ms", Percentile(lat, 99), len(lat))
	}
	w.r.note("max_rps_slo", "req/s", lo, len(phases))
	var queue, late, backend, framing, lookup, upload []float64
	for _, p := range phases {
		for _, s := range p.samples {
			queue = append(queue, ms(s.sent-s.due))
			if s.slept {
				late = append(late, ms(s.sent-s.due))
			}
			if s.status != http.StatusOK && s.status != http.StatusUnprocessableEntity {
				continue
			}
			backend = append(backend, s.backendMs)
			framing = append(framing, ms(s.done-s.sent)-s.backendMs)
			if s.req.upload {
				upload = append(upload, s.latencyMs())
			} else {
				lookup = append(lookup, s.backendMs)
			}
		}
	}
	w.r.note("serve.queue_ms_p99", "ms", Percentile(queue, 99), len(queue))
	w.r.note("loadgen.late_ms_p99", "ms", Percentile(late, 99), len(late))
	w.r.note("serve.backend_ms_p50", "ms", Percentile(backend, 50), len(backend))
	w.r.note("serve.backend_ms_p99", "ms", Percentile(backend, 99), len(backend))
	w.r.note("serve.framing_ms_p50", "ms", Percentile(framing, 50), len(framing))
	w.r.note("serve.lookup_ms_p50", "ms", Percentile(lookup, 50), len(lookup))
	w.r.note("serve.upload_ms_p99", "ms", Percentile(upload, 99), len(upload))
	sm := res.Serve.Serve
	w.r.note("serve.deduped", "count", float64(sm.Deduped), int(sm.Requests))
	w.r.note("serve.rejected", "count", float64(sm.Rejected), int(sm.Requests))
	w.r.note("serve.timeouts", "count", float64(sm.Timeouts), int(sm.Requests))
	return nil
}

// trace replays the low-rate phase against a fresh service twice,
// untraced and then behind the traced analyzer, with the same requests.
func (w *serveWorkload) trace() error {
	replay := func(traced bool) (*childResult, []Item, []Span, error) {
		srv, err := w.startServer(traced)
		if err != nil {
			return nil, nil, nil, err
		}
		var rec *Recorder
		if traced {
			rec = NewRecorder()
		}
		p := newClient(srv.Addr, w.r.nproc, rec).run("replay", w.stream(), lowRate, w.seconds(lowShare))
		res, err := srv.stop()
		if err != nil {
			return nil, nil, nil, err
		}
		return res, w.judge(p), rec.Spans(), nil
	}
	plain, plainItems, _, err := replay(false)
	if err != nil {
		return err
	}
	traced, tracedItems, client, err := replay(true)
	if err != nil {
		return err
	}
	return w.r.layers(plain, traced, plainItems, tracedItems, w.r.nproc, client)
}
