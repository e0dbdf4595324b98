package trace

import (
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenSpans records the fixed span set the /debug/traces golden files
// pin, and returns the three trace IDs in recording order:
//   - a local root with nested children and attributes, one of them set
//     after Start;
//   - a root continuing a remote traceparent;
//   - a trace cut at the 512-span cap. Its root ends last, past the cap,
//     so the record holds only children and the first child, child-0,
//     is its root.
func goldenSpans(tr *Tracer) (local, remote, cut TraceID) {
	ctx, root := tr.Start(context.Background(), "GET /quote", "route", "/quote", "method", "GET")
	qctx, quote := Start(ctx, "market.quote", "model", "linear-regression")
	_, eval := Start(qctx, "pricing.curve_eval", "delta", "0.05")
	eval.End()
	quote.End()
	_, bare := Start(ctx, "market.bare")
	bare.End()
	root.SetAttr("status", "200")
	root.End()
	local = root.Context().TraceID

	rctx := ContextWithRemote(context.Background(), SpanContext{
		TraceID: TraceID{0x0a, 0xf7, 0x65, 0x19, 0x16, 0xcd, 0x43, 0xdd, 0x84, 0x48, 0xeb, 0x21, 0x1c, 0x80, 0x31, 0x9c},
		SpanID:  SpanID{0xb7, 0xad, 0x6b, 0x71, 0x69, 0x20, 0x33, 0x31},
	})
	rctx, server := tr.Start(rctx, "POST /buy", "route", "/buy", "method", "POST")
	_, buy := Start(rctx, "market.buy", "option", "price_budget")
	buy.SetAttr("outcome", "sold")
	buy.End()
	server.End()
	remote = server.Context().TraceID

	cctx, big := tr.Start(context.Background(), "GET /menu")
	for i := 0; i < maxSpansPerTrace+8; i++ {
		_, c := Start(cctx, "child-"+strconv.Itoa(i), "i", strconv.Itoa(i))
		c.End()
	}
	big.End()
	cut = big.Context().TraceID
	return local, remote, cut
}

// TestDebugTracesGolden pins the /debug/traces JSON — the list view and
// the ?trace_id= view with its flat spans and nested tree — against
// committed golden files. IDs, timestamps and durations vary per run;
// normalize replaces them with numbered placeholders. The cut trace's
// 512 spans are trimmed to their first two and last one (and so is its
// tree) to keep its golden file short. Regenerate with
// `go test ./internal/obs/trace -run TestDebugTracesGolden -update`.
func TestDebugTracesGolden(t *testing.T) {
	tr := NewTracer(8)
	local, remote, cut := goldenSpans(tr)
	h := tr.Handler()
	get := func(query string) []byte {
		t.Helper()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/traces"+query, nil))
		if rw.Code != 200 {
			t.Fatalf("GET /debug/traces%s: status %d: %s", query, rw.Code, rw.Body)
		}
		return rw.Body.Bytes()
	}

	checkGolden(t, "list.json", normalize(t, get("")))
	checkGolden(t, "local.json", normalize(t, get("?trace_id="+local.String())))
	checkGolden(t, "remote.json", normalize(t, get("?trace_id="+remote.String())))

	var full struct {
		TraceRecord
		Tree []*SpanNode `json:"tree"`
	}
	if err := json.Unmarshal(get("?trace_id="+cut.String()), &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Spans) != maxSpansPerTrace || len(full.Tree) != maxSpansPerTrace {
		t.Fatalf("cut trace: %d spans, %d tree roots; want %d of each", len(full.Spans), len(full.Tree), maxSpansPerTrace)
	}
	full.Spans = append(full.Spans[:2], full.Spans[len(full.Spans)-1])
	full.Tree = append(full.Tree[:2], full.Tree[len(full.Tree)-1])
	trimmed, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cut.json", normalize(t, append(trimmed, '\n')))
}

var (
	traceIDRe  = regexp.MustCompile(`"[0-9a-f]{32}"`)
	spanIDRe   = regexp.MustCompile(`"[0-9a-f]{16}"`)
	timeRe     = regexp.MustCompile(`"\d{4}-\d\d-\d\dT[^"]+"`)
	durationRe = regexp.MustCompile(`"durationSeconds": ([^,\n]+)`)
)

// normalize replaces trace IDs, span IDs and timestamps with
// placeholders numbered in order of first appearance, so equal values
// share a placeholder and the golden file pins which span is whose
// parent. Durations are numbered per occurrence instead: whether a
// trace's duration equals its root span's to the nanosecond is float
// rounding, not behaviour. A negative duration fails the test.
func normalize(t *testing.T, doc []byte) []byte {
	t.Helper()
	doc = numberValues(doc, traceIDRe, "trace")
	doc = numberValues(doc, spanIDRe, "span")
	doc = numberValues(doc, timeRe, "time")
	n := 0
	return durationRe.ReplaceAllFunc(doc, func(m []byte) []byte {
		raw := durationRe.FindSubmatch(m)[1]
		if v, err := strconv.ParseFloat(string(raw), 64); err != nil || v < 0 {
			t.Errorf("bad duration %s", raw)
		}
		n++
		return []byte(`"durationSeconds": "<dur-` + strconv.Itoa(n) + `>"`)
	})
}

func numberValues(doc []byte, re *regexp.Regexp, kind string) []byte {
	seen := map[string]string{}
	return re.ReplaceAllFunc(doc, func(m []byte) []byte {
		p, ok := seen[string(m)]
		if !ok {
			p = `"<` + kind + "-" + strconv.Itoa(len(seen)+1) + `>"`
			seen[string(m)] = p
		}
		return []byte(p)
	})
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "debug_traces", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from the golden file.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
