package bench

import (
	"sync"
	"time"
)

// Span is one timed call into a layer. Start and End are nanoseconds
// since the recorder's epoch; Parent is the enclosing span's ID (0 for
// a root); Item names the binary or request the call served, so every
// span of one item shares it.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Item   string `json:"item"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run writes them out. A nil
// *Recorder records nothing, so the untraced path pays one nil check
// per call site.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Start opens a span and returns its ID.
func (r *Recorder) Start(name string, parent int32, item string) int32 {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Item: item, Start: t, End: t})
	return id
}

// End closes the span id.
func (r *Recorder) End(id int32) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// SetItem names the item of span id, for spans opened before the item
// was known (an upload is identified by hashing it).
func (r *Recorder) SetItem(id int32, item string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Item = item
	r.mu.Unlock()
}

// Lay records child spans of parent from durations measured inside
// the call (the stage Timings a layer returns), laid end to end from
// the parent's start and clipped to its end. Only their lengths are
// measured; their placement inside the parent is not.
func (r *Recorder) Lay(parent int32, item string, names []string, durs []time.Duration) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	at := p.Start
	for i, name := range names {
		end := min(at+int64(durs[i]), p.End)
		r.spans = append(r.spans, Span{ID: int32(len(r.spans) + 1), Parent: parent, Name: name, Item: item, Start: at, End: end})
		at = end
	}
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// layerTimes aggregates spans by name.
type layerTimes struct {
	self  map[string]int64     // summed self time per span name
	durs  map[string][]float64 // every duration per span name, in µs
	roots int64                // summed duration of root spans
}

// aggregate computes each span's self time — its duration minus the
// union of its children's intervals — and sums it per span name.
func aggregate(spans []Span) layerTimes {
	kids := make(map[int32][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	lt := layerTimes{self: make(map[string]int64), durs: make(map[string][]float64)}
	for _, s := range spans {
		d := s.End - s.Start
		lt.self[s.Name] += d - unionLen(kids[s.ID], s.Start, s.End)
		lt.durs[s.Name] = append(lt.durs[s.Name], float64(d)/1e3)
		if s.Parent == 0 {
			lt.roots += d
		}
	}
	return lt
}

// share is the named layer's summed self time as a share of all root
// span time.
func (lt layerTimes) share(name string) float64 {
	if lt.roots == 0 {
		return 0
	}
	return float64(lt.self[name]) / float64(lt.roots)
}
