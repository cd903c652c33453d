package bench

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one operation (an
// app run, a replay, a session, an eval call) share Req; Parent is the ID of
// the span that caused this one, 0 for a root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// LayerTime aggregates every span of one name.
type LayerTime struct {
	Calls int64
	// Total is the wall time inside the layer's spans.
	Total time.Duration
	// Self is Total minus the time covered by child spans on the same lane:
	// the time the layer itself was running.
	Self time.Duration
}

// maxSpans caps how many spans a tracer keeps for the spans file; layer
// aggregates keep counting past it.
const maxSpans = 1 << 18

// Tracer collects spans and per-layer aggregates in memory for one traced
// run. Each goroutine records through its own Lane, so recording takes no
// lock; the tracer merges the lanes once the run is over.
type Tracer struct {
	now    func() time.Duration
	nextID atomic.Int64

	mu    sync.Mutex
	lanes []*Lane
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	t0 := time.Now()
	return &Tracer{now: func() time.Duration { return time.Since(t0) }}
}

// Lane is the span stack of one goroutine. A nil *Lane records nothing, so
// untraced code paths call the same Begin/End.
type Lane struct {
	t      *Tracer
	parent int64 // parent ID for this lane's outermost spans
	req    int64
	stack  []frame
	spans  []Span
	layers map[string]*LayerTime
}

type frame struct {
	name         string
	id, parent   int64
	start, child time.Duration
}

// Lane opens a lane whose outermost spans are children of span parent (0
// for roots). A nil tracer returns a nil lane.
func (t *Tracer) Lane(parent int64) *Lane {
	if t == nil {
		return nil
	}
	l := &Lane{t: t, parent: parent, layers: map[string]*LayerTime{}}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// SetReq tags the lane's following spans with request id.
func (l *Lane) SetReq(id int64) {
	if l != nil {
		l.req = id
	}
}

// Begin opens a span named name.
func (l *Lane) Begin(name string) {
	if l == nil {
		return
	}
	parent := l.parent
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].id
	}
	l.stack = append(l.stack, frame{name: name, id: l.t.nextID.Add(1), parent: parent, start: l.t.now()})
}

// End closes the innermost open span, charging its duration to the
// enclosing span's child time.
func (l *Lane) End() {
	if l == nil {
		return
	}
	end := l.t.now()
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	dur := end - f.start
	if n > 0 {
		l.stack[n-1].child += dur
	}
	lt := l.layers[f.name]
	if lt == nil {
		lt = &LayerTime{}
		l.layers[f.name] = lt
	}
	lt.Calls++
	lt.Total += dur
	lt.Self += dur - f.child
	if f.id <= maxSpans {
		l.spans = append(l.spans, Span{ID: f.id, Parent: f.parent, Req: l.req,
			Name: f.name, Start: int64(f.start), End: int64(end)})
	}
}

// layer returns this lane's aggregate for one span name so far.
func (l *Lane) layer(name string) LayerTime {
	if l == nil || l.layers[name] == nil {
		return LayerTime{}
	}
	return *l.layers[name]
}

// Layers merges the aggregates of every lane. Call it only after all lanes
// have stopped recording.
func (t *Tracer) Layers() map[string]LayerTime {
	out := map[string]LayerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		for name, lt := range l.layers {
			m := out[name]
			m.Calls += lt.Calls
			m.Total += lt.Total
			m.Self += lt.Self
			out[name] = m
		}
	}
	return out
}

// Spans returns the recorded spans ordered by ID, and how many were
// dropped past the cap. Call it only after all lanes have stopped.
func (t *Tracer) Spans() ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []Span
	for _, l := range t.lanes {
		all = append(all, l.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	dropped := t.nextID.Load() - int64(len(all))
	return all, dropped
}

// spansDoc is one traced run's entry in the -trace spans file.
type spansDoc struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int64  `json:"dropped"`
	Spans    []Span `json:"spans"`
}

// SpansDoc returns the run's spans for the -trace spans file.
func (r *RunResult) SpansDoc() any {
	spans, dropped := r.Spans.Spans()
	return spansDoc{Workload: r.Workload, Seed: r.Seed, Dropped: dropped, Spans: spans}
}
