package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

// A child started after its trace flushed cannot join the flushed
// record; it lands in a record of its own under the same trace ID.
func TestChildAfterFlushRecordsOnItsOwn(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.Start(context.Background(), "root")
	root.End()
	_, late := Start(ctx, "late", "k", "v")
	late.End()

	recs := tr.Traces(0)
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	newer, older := recs[0], recs[1]
	if older.Root != "root" || len(older.Spans) != 1 {
		t.Fatalf("flushed record = %+v", older)
	}
	if newer.Root != "late" || len(newer.Spans) != 1 || newer.TraceID != older.TraceID {
		t.Fatalf("late record = %+v", newer)
	}
	if s := newer.Spans[0]; s.ParentID != root.Context().SpanID.String() || s.Attrs["k"] != "v" {
		t.Fatalf("late span = %+v", s)
	}
	if rec, ok := tr.Lookup(root.Context().TraceID); !ok || rec.Root != "late" {
		t.Fatalf("Lookup = %+v, %v; want the newer record", rec, ok)
	}
	if st := tr.Stats(); st.Pending != 0 || st.Stored != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// Never-ended roots pin only their own buffers: they count as pending
// but do not stop later traces from recording.
func TestLeakedRootsDoNotBlockNewTraces(t *testing.T) {
	const leaked = 2000
	tr := NewTracer(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < leaked/4; i++ {
				tr.Start(context.Background(), "leak")
			}
		}()
	}
	wg.Wait()

	ctx, root := tr.Start(context.Background(), "after")
	_, child := Start(ctx, "child")
	child.End()
	root.End()
	rec, ok := tr.Lookup(root.Context().TraceID)
	if !ok || len(rec.Spans) != 2 || rec.Root != "after" {
		t.Fatalf("trace after %d leaked roots: %+v, %v", leaked, rec, ok)
	}
	if st := tr.Stats(); st.Pending != leaked || st.Stored != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d pending", st, leaked)
	}
}

// Two overlapping requests that continue one inbound traceparent are
// two local roots, so they become two records with the same trace ID,
// and Lookup returns the one that completed last.
func TestSharedTraceparentOverlappingRequests(t *testing.T) {
	tr := NewTracer(4)
	inbound := SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}

	var started sync.WaitGroup
	started.Add(2)
	firstDone := make(chan struct{})
	spans := make([]SpanContext, 2)
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, server := tr.Start(ContextWithRemote(context.Background(), inbound), "POST /buy")
			_, child := Start(ctx, "market.buy")
			spans[i] = server.Context()
			started.Done()
			started.Wait() // both requests are open at once
			if i == 1 {
				<-firstDone
			}
			child.End()
			server.End()
			if i == 0 {
				close(firstDone)
			}
		}(i)
	}
	wg.Wait()

	recs := tr.Traces(0)
	if len(recs) != 2 {
		t.Fatalf("records = %d, want one per request", len(recs))
	}
	for i, rec := range recs {
		if rec.TraceID != inbound.TraceID.String() || len(rec.Spans) != 2 || rec.Root != "POST /buy" {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	rec, ok := tr.Lookup(inbound.TraceID)
	if !ok {
		t.Fatal("shared trace not found")
	}
	var server SpanRecord
	for _, s := range rec.Spans {
		if s.Name == "POST /buy" {
			server = s
		}
	}
	if server.SpanID != spans[1].SpanID.String() || !server.RemoteParent || server.ParentID != inbound.SpanID.String() {
		t.Fatalf("Lookup returned server span %+v, want the later request's %s", server, spans[1].SpanID)
	}
}

// A context marked by ContextWithoutTracing records nothing, whatever
// tracer a span is started on, and neither does anything under it.
func TestContextWithoutTracing(t *testing.T) {
	tr := NewTracer(4)
	ctx := ContextWithoutTracing(ContextWithRemote(context.Background(), SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}))
	ctx, span := tr.Start(ctx, "off")
	if span != nil {
		t.Fatal("span started under ContextWithoutTracing")
	}
	if _, child := Start(ctx, "child"); child != nil {
		t.Fatal("child started under ContextWithoutTracing")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext found a span under ContextWithoutTracing")
	}
	if st := tr.Stats(); st.Stored != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A flushed record is fixed: an attribute set after End is dropped.
func TestSetAttrAfterEndIsDropped(t *testing.T) {
	tr := NewTracer(2)
	_, span := tr.Start(context.Background(), "op", "k", "v")
	span.End()
	span.SetAttr("late", "x")
	rec, ok := tr.Lookup(span.Context().TraceID)
	if !ok || len(rec.Spans) != 1 {
		t.Fatalf("record = %+v, %v", rec, ok)
	}
	if attrs := rec.Spans[0].Attrs; len(attrs) != 1 || attrs["k"] != "v" {
		t.Fatalf("attrs = %v, want only k=v", attrs)
	}
}

// Each span's duration is its own, and a trace runs from its earliest
// span start to its latest span end.
func TestRecordTimes(t *testing.T) {
	const nap = 2 * time.Millisecond
	tr := NewTracer(2)
	ctx, root := tr.Start(context.Background(), "root")
	_, child := Start(ctx, "child")
	time.Sleep(nap)
	child.End()
	root.End()
	rec, ok := tr.Lookup(root.Context().TraceID)
	if !ok || len(rec.Spans) != 2 {
		t.Fatalf("record = %+v, %v", rec, ok)
	}
	c, r := rec.Spans[0], rec.Spans[1]
	if c.Name != "child" || c.DurationSeconds < nap.Seconds() || r.DurationSeconds < c.DurationSeconds {
		t.Fatalf("child %+v, root %+v", c, r)
	}
	if rec.Root != "root" || !rec.Start.Equal(r.Start) || rec.DurationSeconds < r.DurationSeconds-1e-9 {
		t.Fatalf("trace %q start %v duration %v; root span %+v", rec.Root, rec.Start, rec.DurationSeconds, r)
	}
}
