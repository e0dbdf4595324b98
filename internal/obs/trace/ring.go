package trace

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Sizing. Each trace collects its ended spans in a buffer of its own,
// which moves to the ring when the trace's last open span ends. A
// leaked (never-Ended) span therefore pins only its own trace's
// buffer, and a runaway instrumentation loop is cut at
// maxSpansPerTrace — overflow is counted, never silently ignored.
const (
	// DefaultCapacity is the ring size of NewTracer(0) and Default:
	// enough recent traffic to debug a latency spike, small enough
	// (~a few MB worst case) to leave on in production.
	DefaultCapacity = 256
	// maxSpansPerTrace bounds one trace's span count; beyond it spans
	// still close but are not kept.
	maxSpansPerTrace = 512
	// inlineSpans is how many ended spans a trace buffer holds without
	// allocating; a budget buy on a durable ledger ends seven.
	inlineSpans = 8
)

// SpanRecord is the immutable, JSON-ready form of a completed span.
type SpanRecord struct {
	TraceID         string            `json:"traceId"`
	SpanID          string            `json:"spanId"`
	ParentID        string            `json:"parentId,omitempty"`
	RemoteParent    bool              `json:"remoteParent,omitempty"`
	Name            string            `json:"name"`
	Start           time.Time         `json:"start"`
	DurationSeconds float64           `json:"durationSeconds"`
	Attrs           map[string]string `json:"attrs,omitempty"`
}

// TraceRecord is one completed trace: every span that closed before
// the trace's last open span ended, in completion order.
type TraceRecord struct {
	TraceID         string       `json:"traceId"`
	Root            string       `json:"root"`
	Start           time.Time    `json:"start"`
	DurationSeconds float64      `json:"durationSeconds"`
	TruncatedSpans  int          `json:"truncatedSpans,omitempty"`
	Spans           []SpanRecord `json:"spans"`
}

// SpanNode is a span with its children attached — the explorer's tree
// view of a TraceRecord.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree nests spans under their parents, children ordered by start
// time. Spans whose parent is absent from the set (the local root
// under a remote traceparent, or a span that outlived a truncated
// parent) become roots.
func Tree(spans []SpanRecord) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.SpanID] = &SpanNode{SpanRecord: s}
	}
	var roots []*SpanNode
	for _, s := range spans {
		n := nodes[s.SpanID]
		if p, ok := nodes[s.ParentID]; ok && s.ParentID != s.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
	}
	byStart(roots)
	for _, n := range nodes {
		byStart(n.Children)
	}
	return roots
}

// Tracer keeps the most recent completed traces in a fixed-size ring.
// The request path only files raw spans into per-trace buffers and
// takes the tracer's mutex once per trace, to move a finished buffer
// into the ring; Traces, Lookup and Handler render the records.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	ring    []*traceBuf
	next    int // next write slot
	stored  int
	evicted uint64 // completed traces overwritten by newer ones

	pending atomic.Int64  // traces with a span still open
	dropped atomic.Uint64 // spans cut by maxSpansPerTrace
}

// traceBuf collects one trace's ended spans, in completion order. A
// root span opens it and children reach it through their parent. Once
// its last open span ends it is immutable and belongs to the ring.
type traceBuf struct {
	tracer *Tracer
	id     TraceID

	mu        sync.Mutex
	open      int // spans started and not yet ended; 0 once flushed
	spans     []*Span
	truncated int
	inline    [inlineSpans]*Span
}

// NewTracer returns a tracer keeping the last capacity completed
// traces (capacity <= 0 selects DefaultCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{cap: capacity, ring: make([]*traceBuf, capacity)}
}

// Default is the process-wide tracer, mirroring obs.Default: the
// instrumented packages start spans on it unless a request arrived
// through a mux configured with a custom tracer. Set to nil (as
// mbpmarket -traces=false does, before starting anything), it records
// nothing.
var Default = NewTracer(DefaultCapacity)

// newBuf opens the buffer of a trace whose first local span is
// starting.
func (t *Tracer) newBuf(id TraceID) *traceBuf {
	t.pending.Add(1)
	b := &traceBuf{tracer: t, id: id, open: 1}
	b.spans = b.inline[:0]
	return b
}

// join opens one more span in b. It reports false once b has flushed:
// a span started after its trace flushed opens a buffer of its own.
func (b *traceBuf) join() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open == 0 {
		return false
	}
	b.open++
	return true
}

// file records s as ended after d and reports whether it was the
// trace's last open span, so b must move to the ring. A span already
// ended is not filed twice.
func (b *traceBuf) file(s *Span, d time.Duration) (last bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.ended {
		return false
	}
	s.ended, s.dur = true, d
	if len(b.spans) < maxSpansPerTrace {
		b.spans = append(b.spans, s)
	} else {
		b.truncated++
		b.tracer.dropped.Add(1)
	}
	b.open--
	return b.open == 0
}

// store moves a flushed trace buffer into the ring.
func (t *Tracer) store(b *traceBuf) {
	t.mu.Lock()
	if t.ring[t.next] != nil {
		t.evicted++
	}
	t.ring[t.next] = b
	t.next = (t.next + 1) % t.cap
	if t.stored < t.cap {
		t.stored++
	}
	t.mu.Unlock()
	t.pending.Add(-1)
}

// Stats summarizes the ring's occupancy and loss counters. Pending
// counts traces with a span still open; Dropped counts spans cut by the
// per-trace cap.
type Stats struct {
	Capacity int    `json:"capacity"`
	Stored   int    `json:"stored"`
	Pending  int    `json:"pending"`
	Evicted  uint64 `json:"evicted"`
	Dropped  uint64 `json:"dropped"`
}

// Stats returns the current counters.
func (t *Tracer) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Capacity: t.cap, Stored: t.stored, Pending: int(t.pending.Load()), Evicted: t.evicted, Dropped: t.dropped.Load()}
}

// newest returns up to limit flushed buffers, newest first (limit <= 0
// means all stored). The buffers are immutable, so callers render them
// outside the lock.
func (t *Tracer) newest(limit int) []*traceBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	if limit <= 0 || limit > t.stored {
		limit = t.stored
	}
	out := make([]*traceBuf, limit)
	for i := range out {
		out[i] = t.nthNewestLocked(i)
	}
	return out
}

// nthNewestLocked returns the i-th newest stored buffer (0 is the
// newest); i must be below t.stored.
func (t *Tracer) nthNewestLocked(i int) *traceBuf {
	return t.ring[((t.next-1-i)%t.cap+t.cap)%t.cap]
}

// Traces returns up to limit completed traces, newest first (limit <= 0
// means all stored).
func (t *Tracer) Traces(limit int) []*TraceRecord {
	bufs := t.newest(limit)
	out := make([]*TraceRecord, len(bufs))
	for i, b := range bufs {
		out[i] = b.record()
	}
	return out
}

// Lookup returns the newest completed trace with the given ID.
func (t *Tracer) Lookup(id TraceID) (*TraceRecord, bool) {
	var hit *traceBuf
	t.mu.Lock()
	for i := 0; i < t.stored; i++ {
		if b := t.nthNewestLocked(i); b.id == id {
			hit = b
			break
		}
	}
	t.mu.Unlock()
	if hit == nil {
		return nil, false
	}
	return hit.record(), true
}

// TraceSummary is one row of the explorer's list view.
type TraceSummary struct {
	TraceID         string    `json:"traceId"`
	Root            string    `json:"root"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"durationSeconds"`
	Spans           int       `json:"spans"`
}

// summary renders a flushed buffer's list row: start is the earliest
// span start, duration runs to the latest span end, and the root is the
// earliest span without a local parent.
func (b *traceBuf) summary() TraceSummary {
	sum := TraceSummary{TraceID: b.id.String(), Spans: len(b.spans)}
	if len(b.spans) == 0 {
		return sum
	}
	start := b.spans[0].start
	var end, rootStart time.Time
	for _, s := range b.spans {
		if s.start.Before(start) {
			start = s.start
		}
		if e := s.start.Add(s.dur); e.After(end) {
			end = e
		}
		if !b.holds(s.parent) && (rootStart.IsZero() || s.start.Before(rootStart)) {
			sum.Root, rootStart = s.name, s.start
		}
	}
	sum.Start = start
	sum.DurationSeconds = end.Sub(start).Seconds()
	return sum
}

// holds reports whether the span with the given ID is in the buffer.
func (b *traceBuf) holds(id SpanID) bool {
	for _, s := range b.spans {
		if s.sc.SpanID == id {
			return true
		}
	}
	return false
}

// record renders a flushed buffer as a TraceRecord.
func (b *traceBuf) record() *TraceRecord {
	sum := b.summary()
	rec := &TraceRecord{
		TraceID:         sum.TraceID,
		Root:            sum.Root,
		Start:           sum.Start,
		DurationSeconds: sum.DurationSeconds,
		TruncatedSpans:  b.truncated,
		Spans:           make([]SpanRecord, len(b.spans)),
	}
	for i, s := range b.spans {
		rec.Spans[i] = s.record(sum.TraceID)
	}
	return rec
}

// record renders an ended span; traceID is its trace's rendered ID.
func (s *Span) record(traceID string) SpanRecord {
	rec := SpanRecord{
		TraceID:         traceID,
		SpanID:          s.sc.SpanID.String(),
		Name:            s.name,
		Start:           s.start,
		DurationSeconds: s.dur.Seconds(),
		RemoteParent:    s.remote,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	return rec
}

// Handler serves the trace explorer:
//
//	GET /debug/traces                 — ring stats + summaries, newest first
//	GET /debug/traces?limit=N         — at most N summaries
//	GET /debug/traces?trace_id=<hex>  — one trace in full, with a nested tree
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if q := req.URL.Query().Get("trace_id"); q != "" {
			id, err := ParseTraceID(q)
			if err != nil {
				w.WriteHeader(http.StatusBadRequest)
				enc.Encode(map[string]string{"error": err.Error()})
				return
			}
			rec, ok := t.Lookup(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				enc.Encode(map[string]string{"error": "trace " + q + " not in the ring (completed traces only; the ring holds the newest " + strconv.Itoa(t.cap) + ")"})
				return
			}
			enc.Encode(struct {
				*TraceRecord
				Tree []*SpanNode `json:"tree"`
			}{rec, Tree(rec.Spans)})
			return
		}
		limit := 50
		if raw := req.URL.Query().Get("limit"); raw != "" {
			if n, err := strconv.Atoi(raw); err == nil {
				limit = n
			}
		}
		bufs := t.newest(limit)
		summaries := make([]TraceSummary, len(bufs))
		for i, b := range bufs {
			summaries[i] = b.summary()
		}
		enc.Encode(struct {
			Stats
			Traces []TraceSummary `json:"traces"`
		}{t.Stats(), summaries})
	})
}
