package main

import (
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/obs/trace"
)

func span(id, parent string, t0 time.Time, fromUs, toUs int) trace.SpanRecord {
	return trace.SpanRecord{
		SpanID:          id,
		ParentID:        parent,
		Name:            id,
		Start:           t0.Add(time.Duration(fromUs) * time.Microsecond),
		DurationSeconds: float64(toUs-fromUs) / 1e6,
	}
}

// TestSelfTimesPartitionTheRoot: "append" is recorded as root's child
// but runs inside "ledger", so it is charged to ledger (the
// market.ledger_append / store.append shape); the overlapping "a" and
// "b" cover the root once, while each keeps its own time, so the self
// times sum to the root's duration plus their 5µs overlap.
func TestSelfTimesPartitionTheRoot(t *testing.T) {
	t0 := time.Unix(0, 0)
	spans := []trace.SpanRecord{
		span("root", "", t0, 0, 100),
		span("ledger", "root", t0, 10, 60),
		span("append", "root", t0, 20, 50),
		span("a", "root", t0, 70, 80),
		span("b", "root", t0, 75, 85),
	}
	got := selfTimes(spans)
	want := []float64{100 - 50 - 15, 50 - 30, 30, 10, 10}
	var sum float64
	for i := range want {
		if d := got[i] - want[i]; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s self = %v µs, want %v", spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if d := sum - 105; d > 1e-6 || d < -1e-6 {
		t.Errorf("self times sum to %v µs, want the root's 100 plus the 5 of overlap", sum)
	}
}

// TestHarvestSkipsOtherRoots: only request traces count, and each span
// name's mean self time is per occurrence.
func TestHarvestSkipsOtherRoots(t *testing.T) {
	t0 := time.Unix(0, 0)
	quote := &trace.TraceRecord{Root: rootQuote, Spans: []trace.SpanRecord{
		{SpanID: "r", Name: rootQuote, Start: t0, DurationSeconds: 10e-6},
		{SpanID: "q", ParentID: "r", Name: "market.quote", Start: t0.Add(2 * time.Microsecond), DurationSeconds: 4e-6},
	}}
	sweep := &trace.TraceRecord{Root: "audit.sweep", Spans: []trace.SpanRecord{
		{SpanID: "s", Name: "audit.sweep", Start: t0, DurationSeconds: 1},
		{SpanID: "m", ParentID: "s", Name: "market.quote", Start: t0, DurationSeconds: 0.5},
	}}
	h := harvest([]*trace.TraceRecord{quote, sweep, quote})
	if h.count(rootQuote) != 2 || h.count("audit.sweep") != 0 {
		t.Fatalf("counted %d quote traces and %d sweeps, want 2 and 0", h.count(rootQuote), h.count("audit.sweep"))
	}
	if got := h.meanSelf("market.quote"); got < 3.999 || got > 4.001 {
		t.Fatalf("market.quote mean self %v µs, want 4", got)
	}
	if got := h.meanSelf(rootQuote); got < 5.999 || got > 6.001 {
		t.Fatalf("route self %v µs, want 6", got)
	}
}

// TestClosureCountsUnspannedTime: the route's own self time is not a
// named layer, so a handler that spends 6 of its 10µs outside any span
// leaves 6µs unattributed — 30% of a 20µs client mean — and a timed
// quorum wait inside the route is attributed.
func TestClosureCountsUnspannedTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	quote := &trace.TraceRecord{Root: rootQuote, Spans: []trace.SpanRecord{
		{SpanID: "r", Name: rootQuote, Start: t0, DurationSeconds: 10e-6},
		{SpanID: "q", ParentID: "r", Name: "market.quote", Start: t0.Add(2 * time.Microsecond), DurationSeconds: 4e-6},
	}}
	ra := harvest([]*trace.TraceRecord{quote, quote}).routes[rootQuote]
	if got := ra.unattributedPct(20); got < 29.999 || got > 30.001 {
		t.Fatalf("unattributed %v%%, want 30", got)
	}
	ra.ackUs = 2 * 6 // 6µs per request
	if got := ra.unattributedPct(20); got < -0.001 || got > 0.001 {
		t.Fatalf("unattributed %v%% with the wait timed, want 0", got)
	}
}
