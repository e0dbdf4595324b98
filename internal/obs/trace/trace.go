// Package trace is a stdlib-only request-tracing layer for the
// marketplace's serving stack: trace/span IDs, context.Context
// propagation, W3C traceparent inject/extract, per-span timings and
// key/value attributes, and a bounded ring buffer of completed traces
// served as JSON at GET /debug/traces.
//
// Where internal/obs answers "how fast is /buy on average", a trace
// answers the per-request question the paper's real-time-interaction
// claim (Section 6) raises: where did THIS purchase's latency go —
// price-curve lookup, noise injection (Thms. 5/6), or ledger append?
// Every span records wall time and attributes; completed traces are
// kept in a fixed-size ring so the explorer endpoint is safe to leave
// on in production.
//
// Usage mirrors net/http's context conventions:
//
//	ctx, span := trace.Start(ctx, "market.buy", "model", m.String())
//	defer span.End()
//
// Start opens a child of the span already in ctx; with no local parent
// it continues a remote SpanContext stored by ContextWithRemote (the
// traceparent hop), and with neither it begins a new trace. A nil
// *Span is safe to use, so callers never need nil checks.
package trace

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"
)

// TraceID identifies one request tree end to end (16 bytes, per W3C
// trace-context).
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses 32 hex digits; the all-zero ID is rejected.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, fmt.Errorf("trace: trace id %q is not %d hex digits", s, 2*len(id))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("trace: bad trace id %q: %w", s, err)
	}
	if id.IsZero() {
		return TraceID{}, fmt.Errorf("trace: all-zero trace id")
	}
	return id, nil
}

// SpanID identifies one operation within a trace (8 bytes).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// ParseSpanID parses 16 hex digits; the all-zero ID is rejected.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 2*len(id) {
		return SpanID{}, fmt.Errorf("trace: span id %q is not %d hex digits", s, 2*len(id))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, fmt.Errorf("trace: bad span id %q: %w", s, err)
	}
	if id.IsZero() {
		return SpanID{}, fmt.Errorf("trace: all-zero span id")
	}
	return id, nil
}

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], rand.Uint64())
		binary.BigEndian.PutUint64(id[8:], rand.Uint64())
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], rand.Uint64())
	}
	return id
}

// SpanContext is the propagated identity of a span: what crosses a
// process boundary in a traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// inlineAttrs is how many attributes a span holds without allocating:
// the HTTP route span carries three (route, method, status).
const inlineAttrs = 4

// Span is one timed operation in a trace. Spans are created by Start
// and filed, as they are, into their trace's buffer when they End; the
// buffer moves into its tracer's ring when the trace's last open span
// ends. IDs, attribute maps and records are rendered only when someone
// reads the ring. All methods are safe on a nil receiver (no-ops), so
// disabled tracing costs callers nothing.
type Span struct {
	buf    *traceBuf
	name   string
	sc     SpanContext
	parent SpanID
	remote bool // parent arrived over the wire (traceparent)
	start  time.Time

	// Guarded by buf.mu until the span ends; immutable after.
	ended  bool
	dur    time.Duration
	attrs  []Attr // backed by inline until it outgrows it
	inline [inlineAttrs]Attr
}

// Context returns the span's propagated identity (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr annotates the span. Attributes set after End are dropped.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.buf.mu.Lock()
	defer s.buf.mu.Unlock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{key, value})
	}
}

// End closes the span, recording its duration. The first call wins;
// later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if b := s.buf; b.file(s, d) {
		b.tracer.store(b)
	}
}

type spanKey struct{}

// tracingOff is stored under spanKey by ContextWithoutTracing.
type tracingOff struct{}

// ContextWithSpan returns a context carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// ContextWithoutTracing returns a context under which Start records
// nothing: every span started from it, or from a context derived from
// it, is nil, whatever the tracer. A server with tracing disabled marks
// each request this way, so the layers under it stay silent too.
func ContextWithoutTracing(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, tracingOff{})
}

// FromContext returns the span in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

type remoteKey struct{}

// ContextWithRemote stores an inbound (wire-side) span context, e.g.
// one extracted from a traceparent header. The next Start with no
// local parent continues that trace instead of opening a new one.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteKey{}, sc)
}

// RemoteFromContext returns the inbound span context, if any.
func RemoteFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteKey{}).(SpanContext)
	return sc, ok && sc.IsValid()
}

// Start opens a span on the Default tracer (or the parent span's
// tracer, when ctx carries one). Instrumented packages use this form
// so a request traced on a custom tracer keeps its children together.
// kv are initial attributes, alternating key, value.
func Start(ctx context.Context, name string, kv ...string) (context.Context, *Span) {
	return Default.Start(ctx, name, kv...)
}

// Start opens a span as a child of the span in ctx; with no local
// parent it continues a remote SpanContext stored by ContextWithRemote
// (the traceparent hop), and with neither it begins a new trace on t.
// A child always lands on its parent's tracer, never splitting one
// request tree across ring buffers. A nil tracer, or a ctx marked by
// ContextWithoutTracing, records nothing and returns (ctx, nil); the
// nil span is safe to use.
func (t *Tracer) Start(ctx context.Context, name string, kv ...string) (context.Context, *Span) {
	if len(kv)%2 != 0 {
		panic("trace: Start needs alternating key, value attribute pairs")
	}
	var parent *Span
	switch v := ctx.Value(spanKey{}).(type) {
	case *Span:
		parent = v
	case tracingOff:
		return ctx, nil
	}
	if parent != nil {
		t = parent.buf.tracer
	}
	if t == nil {
		return ctx, nil
	}
	s := &Span{name: name, start: time.Now()}
	switch {
	case parent != nil:
		s.sc.TraceID = parent.sc.TraceID
		s.parent = parent.sc.SpanID
		if parent.buf.join() {
			s.buf = parent.buf
		}
	default:
		if rc, ok := RemoteFromContext(ctx); ok {
			s.sc.TraceID = rc.TraceID
			s.parent = rc.SpanID
			s.remote = true
		} else {
			s.sc.TraceID = newTraceID()
		}
	}
	s.sc.SpanID = newSpanID()
	s.attrs = s.inline[:0]
	for i := 0; i+1 < len(kv); i += 2 {
		s.attrs = append(s.attrs, Attr{kv[i], kv[i+1]})
	}
	if s.buf == nil {
		s.buf = t.newBuf(s.sc.TraceID)
	}
	return ContextWithSpan(ctx, s), s
}
