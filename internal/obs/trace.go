// Package obs is the query-level observability layer (DESIGN.md S21): a
// lightweight context-propagated span tracer with a Chrome trace_event
// exporter, a metrics registry with diffable snapshots, and per-operator
// profiles backing EXPLAIN ANALYZE. Everything is designed around a
// disabled fast path: a nil *Tracer, nil *Span, nil *PlanProfile and nil
// *IOTally are all valid no-op receivers, so instrumented code never
// branches on "observability enabled".
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories used across the engine. The exporter gives CatTask
// spans their own trace lanes so concurrent task attempts stack side by
// side; other categories inherit their ancestor's lane.
const (
	CatQuery = "query"
	CatPhase = "phase" // parse / plan / optimize / compile
	CatJob   = "job"
	CatTask  = "task" // one task attempt
	CatOp    = "op"   // one runtime operator within an attempt
)

// Tracer collects the spans of one query (or one benchmark run). A nil
// *Tracer is a valid disabled tracer: Start returns a nil *Span.
type Tracer struct {
	mu       sync.Mutex
	finished []SpanData
	open     map[int64]*Span
	nextID   atomic.Int64
	now      func() time.Time // injectable clock for deterministic tests
}

// NewTracer creates an empty tracer using the wall clock.
func NewTracer() *Tracer {
	return &Tracer{open: make(map[int64]*Span), now: time.Now}
}

// SpanData is one exported span.
type SpanData struct {
	ID        int64
	Parent    int64 // 0 for roots
	Name      string
	Cat       string
	Start     time.Time
	Dur       time.Duration
	Attrs     []Attr
	Truncated bool // still open at export time (cancelled or in-flight)
}

// Attr is one span attribute; duplicate keys resolve last-write-wins at
// export.
type Attr struct {
	Key string
	Val any
}

// Span is an in-flight span. All methods are safe on a nil receiver.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	name   string
	cat    string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	done  bool
}

// Start opens a span under parent (nil for a root span). Returns nil when
// the tracer is nil.
func (t *Tracer) Start(name, cat string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, id: t.nextID.Add(1), name: name, cat: cat, start: t.clock()}
	if parent != nil {
		s.parent = parent.id
	}
	t.mu.Lock()
	t.open[s.id] = s
	t.mu.Unlock()
	return s
}

func (t *Tracer) clock() time.Time {
	if t.now != nil {
		return t.now()
	}
	return time.Now()
}

// SetAttr attaches an attribute to the span.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, val})
	s.mu.Unlock()
}

// Finish closes the span, recording its duration into the tracer.
// Idempotent; children may finish after their parent (out-of-order
// finish is fine — parentage was captured at Start).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	end := s.tr.clock()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	data := SpanData{
		ID: s.id, Parent: s.parent, Name: s.name, Cat: s.cat,
		Start: s.start, Dur: end.Sub(s.start),
		Attrs: append([]Attr(nil), s.attrs...),
	}
	s.mu.Unlock()
	t := s.tr
	t.mu.Lock()
	delete(t.open, s.id)
	t.finished = append(t.finished, data)
	t.mu.Unlock()
}

// FinishErr finishes the span, attaching the error (if any) first.
func (s *Span) FinishErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetAttr("error", err.Error())
	}
	s.Finish()
}

// Emit records a completed span retroactively — per-operator spans are
// emitted this way, since an operator's activity interval is only known
// after its attempt profiles fold into the query profile.
func (t *Tracer) Emit(name, cat string, parent *Span, start time.Time, dur time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	data := SpanData{ID: t.nextID.Add(1), Name: name, Cat: cat, Start: start, Dur: dur, Attrs: attrs}
	if parent != nil {
		data.Parent = parent.id
	}
	t.mu.Lock()
	t.finished = append(t.finished, data)
	t.mu.Unlock()
}

// Spans returns every finished span plus any span still open, truncated
// at the current clock — a query cancelled mid-flight still exports a
// complete, well-nested trace. Sorted by start time then ID.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	now := t.clock()
	t.mu.Lock()
	out := append([]SpanData(nil), t.finished...)
	openSpans := make([]*Span, 0, len(t.open))
	for _, s := range t.open {
		openSpans = append(openSpans, s)
	}
	t.mu.Unlock()
	for _, s := range openSpans {
		s.mu.Lock()
		if !s.done { // lost a race with Finish: it is in finished already or will be next export
			out = append(out, SpanData{
				ID: s.id, Parent: s.parent, Name: s.name, Cat: s.cat,
				Start: s.start, Dur: now.Sub(s.start),
				Attrs: append([]Attr(nil), s.attrs...), Truncated: true,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// --- context propagation ---

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context carrying t; Driver.RunWith and the
// engine pick it up from there.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithSpan returns a context carrying sp as the current span.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// StartSpan opens a child of the context's current span (or a root span
// of the context's tracer when no span is current yet) and returns a
// derived context carrying it. When the context carries neither tracer
// nor span it returns (ctx, nil) untouched — the disabled fast path costs
// two context lookups and zero allocations.
func StartSpan(ctx context.Context, name, cat string) (context.Context, *Span) {
	if sp := SpanFrom(ctx); sp != nil {
		child := sp.tr.Start(name, cat, sp)
		return WithSpan(ctx, child), child
	}
	if t := TracerFrom(ctx); t != nil {
		sp := t.Start(name, cat, nil)
		return WithSpan(ctx, sp), sp
	}
	return ctx, nil
}
