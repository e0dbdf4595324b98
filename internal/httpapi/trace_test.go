package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/store"

	"log/slog"
)

const (
	inboundTraceID = "0af7651916cd43dd8448eb211c80319c"
	inboundSpanID  = "b7ad6b7169203331"
)

// syncBuffer lets the slog handler write from the server goroutine
// while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// tracedTree is the /debug/traces?trace_id= response shape.
type tracedTree struct {
	trace.TraceRecord
	Tree []*trace.SpanNode `json:"tree"`
}

// TestExchangeBuyTracePropagation is the acceptance path for the
// tracing subsystem: a /buy through the exchange mux with an inbound
// W3C traceparent must land in /debug/traces as ONE stitched span tree
// — rooted under the remote caller's span, spanning the
// exchange→broker hop, and reaching down to the noise-injection leaf —
// with the access-log line carrying the same trace_id.
func TestExchangeBuyTracePropagation(t *testing.T) {
	ex := market.NewExchange()
	if err := ex.List("casp", markettest.Broker(t, 3)); err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(16)
	logs := &syncBuffer{}
	logger := slog.New(trace.NewLogHandler(slog.NewJSONHandler(logs, nil)))
	ts := httptest.NewServer(NewExchange(ex,
		WithRegistry(obs.NewRegistry()),
		WithTracer(tr),
		WithLogger(logger),
	).Mux())
	defer ts.Close()

	var curve CurveResponse
	getJSON(t, ts.URL+"/l/casp/curve?model=linear-regression", http.StatusOK, &curve)

	body, _ := json.Marshal(BuyRequest{Model: "linear-regression", Delta: f(curve.Curve[1].Delta)})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/l/casp/buy", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, "00-"+inboundTraceID+"-"+inboundSpanID+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/buy status %d", resp.StatusCode)
	}

	// The trace flushes when the middleware ends the server span, which
	// can race the client seeing the response — poll for it.
	var tree tracedTree
	deadline := time.Now().Add(3 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/debug/traces?trace_id=" + inboundTraceID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&tree); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			break
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the ring", inboundTraceID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if len(tree.Spans) < 4 {
		t.Fatalf("span tree has %d spans, want >= 4: %+v", len(tree.Spans), tree.Spans)
	}
	for _, s := range tree.Spans {
		if s.TraceID != inboundTraceID {
			t.Fatalf("span %q carries trace %s, want %s", s.Name, s.TraceID, inboundTraceID)
		}
	}
	if len(tree.Tree) != 1 {
		t.Fatalf("want one stitched root, got %d: %+v", len(tree.Tree), tree.Tree)
	}
	root := tree.Tree[0]
	if root.Name != "POST /l/{listing}/buy" {
		t.Fatalf("root span %q", root.Name)
	}
	if root.ParentID != inboundSpanID || !root.RemoteParent {
		t.Fatalf("root not stitched to inbound span: parent=%q remote=%v", root.ParentID, root.RemoteParent)
	}

	names := map[string]bool{}
	var walk func(n *trace.SpanNode)
	walk = func(n *trace.SpanNode) {
		names[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, want := range []string{"exchange.resolve_listing", "market.buy", "noise.perturb", "market.ledger_append"} {
		if !names[want] {
			t.Fatalf("span %q missing from tree: have %v", want, names)
		}
	}

	// Every access-log line written during the request carries the
	// inbound trace_id (the slog handler reads it off the context).
	out := logs.String()
	if !strings.Contains(out, `"msg":"http request"`) {
		t.Fatalf("no access log lines: %q", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, `"route":"/l/{listing}/buy"`) {
			continue
		}
		if !strings.Contains(line, `"trace_id":"`+inboundTraceID+`"`) {
			t.Fatalf("access log line missing trace_id: %s", line)
		}
	}
}

// TestWithoutTracing checks the escape hatch: no spans recorded, no
// /debug/traces route, requests still served.
func TestWithoutTracing(t *testing.T) {
	ts := httptest.NewServer(New(markettest.Broker(t, 4),
		WithRegistry(obs.NewRegistry()),
		WithoutTracing(),
	).Mux())
	defer ts.Close()

	getJSON(t, ts.URL+"/menu", http.StatusOK, nil)
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces without tracing: status %d", resp.StatusCode)
	}
}

// TestWithoutTracingRecordsNothing: with tracing disabled, no layer
// under a request records a span. Not the route span, and not the
// market, pricing, noise or store spans, which find no parent and would
// otherwise each open a root trace on trace.Default.
func TestWithoutTracingRecordsNothing(t *testing.T) {
	b := markettest.Broker(t, 4)
	d, rs, err := market.OpenDurableLedger(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	b.AttachDurableLedger(d, rs)

	prev := trace.Default
	trace.Default = trace.NewTracer(16)
	t.Cleanup(func() { trace.Default = prev })

	ts := httptest.NewServer(New(b, WithRegistry(obs.NewRegistry()), WithoutTracing()).Mux())
	defer ts.Close()
	var curve CurveResponse
	getJSON(t, ts.URL+"/curve?model=linear-regression", http.StatusOK, &curve)
	delta := curve.Curve[1].Delta
	getJSON(t, ts.URL+"/quote?model=linear-regression&delta="+strconv.FormatFloat(delta, 'g', -1, 64), http.StatusOK, nil)
	resp := postBuy(t, ts.URL+"/buy", BuyRequest{Model: "linear-regression", Delta: f(delta)}, "untraced-1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed /buy: status %d", resp.StatusCode)
	}
	if n := len(b.Ledger()); n != 1 {
		t.Fatalf("ledger rows = %d, want 1", n)
	}
	if st := trace.Default.Stats(); st.Stored != 0 || st.Pending != 0 {
		t.Fatalf("trace.Default recorded under WithoutTracing: %+v", st)
	}
}
