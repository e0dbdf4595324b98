package trace

import (
	"context"
	"testing"
)

// quoteTrace records the span tree a served quote produces: the route
// span, market.quote under it and pricing.curve_eval under that, each
// with its attributes, and the route's status set before it ends.
func quoteTrace(tr *Tracer) {
	ctx, route := tr.Start(context.Background(), "GET /quote", "route", "/quote", "method", "GET")
	qctx, quote := Start(ctx, "market.quote", "model", "linear-regression")
	_, eval := Start(qctx, "pricing.curve_eval", "delta", "0.05")
	eval.End()
	quote.End()
	route.SetAttr("status", "200")
	route.End()
}

// BenchmarkSpanTree records quote-shaped traces into a default-sized
// ring, serially and from parallel goroutines, and checks that every
// trace reached the ring whole.
func BenchmarkSpanTree(b *testing.B) {
	check := func(b *testing.B, tr *Tracer) {
		b.Helper()
		st := tr.Stats()
		if st.Pending != 0 || st.Dropped != 0 || uint64(st.Stored)+st.Evicted != uint64(b.N) {
			b.Fatalf("after %d traces: %+v", b.N, st)
		}
		if recs := tr.Traces(1); len(recs) != 1 || len(recs[0].Spans) != 3 || recs[0].Root != "GET /quote" {
			b.Fatalf("newest trace = %+v", recs)
		}
	}
	b.Run("serial", func(b *testing.B) {
		tr := NewTracer(DefaultCapacity)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			quoteTrace(tr)
		}
		b.StopTimer()
		check(b, tr)
	})
	b.Run("parallel", func(b *testing.B) {
		tr := NewTracer(DefaultCapacity)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				quoteTrace(tr)
			}
		})
		b.StopTimer()
		check(b, tr)
	})
}
