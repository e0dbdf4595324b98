package main

// The traced run (--trace 1) splits the serving path layer by layer. It
// drives the same closed-loop mix through the API as deployed (its own
// 256-trace ring), and through a second API over the same broker whose
// tracer is the benchmark's, sized to keep every trace of the phase.
// That tracer is also trace.Default for the whole run, because broker
// spans with no parent land there. The harvest
// computes each span's self time (its duration minus the union of its
// children) and adds the benchmark's own timers around public hooks:
// store.Options.Hooks, the broker's ack barrier, the followers'
// HandleFrames, an in-process pass through Broker.BuyIdempotent, and one
// quiescent Auditor.Sweep.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datamarket/mbp/internal/httpapi"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/workload"
)

// sink keeps the benchmark's in-process helper traffic (journal
// seeding, the replay pass) off the harvested
// tracer: a span's children land on its parent's tracer.
var sink = trace.NewTracer(1)

// helperCtx opens a root span on sink; end it after the call.
func helperCtx(ctx context.Context) (context.Context, *trace.Span) {
	return sink.Start(ctx, "perfbench.helper")
}

// Route root span names, as httpapi names them.
const (
	rootQuote = "GET /quote"
	rootBuy   = "POST /buy"
)

// spanLayers maps the program's span names to per-layer metrics, in
// call order. Each metric is the span's mean self time per occurrence.
var spanLayers = []struct{ span, metric string }{
	{rootQuote, "httpapi.quote_self_us"},
	{rootBuy, "httpapi.buy_self_us"},
	{"market.quote", "market.quote_self_us"},
	{"market.buy", "market.buy_self_us"},
	{"pricing.curve_eval", "pricing.curve_eval_us"},
	{"pricing.budget_search", "pricing.budget_search_us"},
	{"noise.perturb", "noise.perturb_us"},
	{"market.ledger_append", "market.ledger_append_self_us"},
	{"store.append", ""}, // reported from the store hooks as store.append_us
}

// ackSinkKey carries a *time.Duration the timed ack barrier adds its
// wait to, so the replay pass can take the quorum wait out of its own
// figure.
type ackSinkKey struct{}

// timedBarrier is the quorum barrier replica.Node.StartLeading
// installs — WaitQuorum under the ack timeout — with a timer around it.
func (r *runner) timedBarrier(st *stack) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		t0 := time.Now()
		wctx, cancel := context.WithTimeout(ctx, ackTimeout)
		err := st.repl.WaitQuorum(wctx)
		cancel()
		el := time.Since(t0)
		if r.taps.on.Load() {
			r.taps.acks.Add(1)
			r.taps.ackNs.Add(int64(el))
		}
		if d, ok := ctx.Value(ackSinkKey{}).(*time.Duration); ok {
			*d += el
		}
		return err
	}
}

// tracedRun measures the per-layer metrics. The closed-loop mix runs in
// four half-size passes, untraced (U: the API as deployed) and traced
// (T: through the benchmark's tracer) in the order U T T U. The stack
// grows as the passes run — ledger, replay cache, journal — and in that
// order both kinds sit at the same mean point of the growth, so the
// untraced-to-traced ratio measures tracing rather than growth.
func (r *runner) tracedRun(st *stack, info map[string]any) (*result, error) {
	big := r.tracer
	spec := r.spec
	half := int(spec.capacity * r.seconds * 0.35 / 2)

	url, err := st.addFront(httpapi.WithTracer(big))
	if err != nil {
		return nil, err
	}
	if st.repl != nil {
		st.b.SetAckBarrier(r.timedBarrier(st))
	}
	leaderDir := ""
	if st.d != nil {
		leaderDir = st.d.Dir()
	}
	var u, t []*phaseResult
	var rows0, rows1 int
	var bytes0, bytes1 int64
	var before, after trace.Stats
	var h *harvested
	for i, traced := range []bool{false, true, true, false} {
		seg := uint64(i) << 40
		if !traced {
			sched, err := spec.scheduleFor(r.menu, half, r.phaseSeed(phaseUntraced)^seg)
			if err != nil {
				return nil, err
			}
			p, err := r.runPhase(fmt.Sprintf("untraced-%d", i), st, r.client(st.srv.url), sched, nil)
			if err != nil {
				return nil, err
			}
			u = append(u, p)
			continue
		}
		sched, err := spec.scheduleFor(r.menu, half, r.phaseSeed(phaseTraced)^seg)
		if err != nil {
			return nil, err
		}
		if len(t) == 0 {
			rows0, _, _ = st.b.LedgerTotals()
			bytes0 = dirBytes(leaderDir)
			before = big.Stats()
		}
		r.taps.on.Store(true)
		p, err := r.runPhase(fmt.Sprintf("traced-%d", i), st, r.client(url), sched, nil)
		r.taps.on.Store(false)
		if err != nil {
			return nil, err
		}
		t = append(t, p)
		if len(t) == 2 {
			after = big.Stats()
			rows1, _, _ = st.b.LedgerTotals()
			bytes1 = dirBytes(leaderDir)
			h = harvest(big.Traces(0))
		}
	}
	sales := float64(rows1 - rows0)
	journal := float64(bytes1 - bytes0)
	trec := mergeRecorders(t)

	replay, err := r.replayPass(st)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	st.auditor.Sweep(time.Now())
	sweep := time.Since(t0)

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, l := range spanLayers {
		if l.metric != "" {
			set(l.metric, h.meanSelf(l.span), "us")
		}
	}

	// Closure: per route, the client's mean latency against the route
	// span and the named layers inside it. The quorum wait has no span;
	// the timed ack barrier names it for buys.
	var clientSum, routeSum float64
	var clientN int
	lines := []string{}
	for _, c := range []struct {
		class opClass
		root  string
		ackNs int64
	}{{classQuote, rootQuote, 0}, {classBuy, rootBuy, r.taps.ackNs.Load()}} {
		cs := summarize(trec.route(c.class))
		ra := h.routes[c.root]
		if ra == nil {
			ra = &routeAgg{layers: map[string]*layerAgg{}}
		}
		ra.ackUs = float64(c.ackNs) / 1e3
		finite := cs.N - cs.Failed
		clientSum += cs.Mean * float64(finite)
		clientN += finite
		routeSum += ra.durUs
		lines = append(lines, ra.table(c.root, cs, finite))
		m["trace."+c.class.String()+"_unattributed_pct"] = metric{ra.unattributedPct(cs.Mean), "%"}
	}
	wait := 0.0
	if clientN > 0 {
		wait = (clientSum - routeSum) / float64(clientN)
	}
	set("client.wait_us", wait, "us")

	quotes, buys := len(trec.route(classQuote)), len(trec.route(classBuy))
	complete := after.Evicted == before.Evicted && after.Dropped == before.Dropped &&
		h.count(rootQuote) == quotes && h.count(rootBuy) == buys
	fmt.Printf("harvest: %d quote + %d buy traces for %d + %d client ops; tracer capacity %d, evicted %d, dropped %d during the phase — %s\n",
		h.count(rootQuote), h.count(rootBuy), quotes, buys,
		after.Capacity, after.Evicted-before.Evicted, after.Dropped-before.Dropped,
		map[bool]string{true: "complete", false: "INCOMPLETE: the per-layer figures miss traces"}[complete])
	for _, l := range lines {
		fmt.Print(l)
	}

	perPost := func(n uint64) float64 {
		if p := r.taps.posts.Load(); p > 0 {
			return float64(n) / float64(p)
		}
		return 0
	}
	perSale := func(x float64) float64 {
		if sales > 0 {
			return x / sales
		}
		return 0
	}
	meanUs := func(ns int64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e3
	}
	set("store.append_us", meanUs(r.taps.appendNs.Load(), r.taps.appends.Load()), "us")
	set("store.fsyncs_per_sale", perSale(float64(r.taps.fsyncs.Load())), "count")
	set("store.bytes_per_sale", perSale(journal), "B")
	set("store.recovery_s", medianOr0(r.setup.Recover), "s")
	set("resilience.replay_seed_s", medianOr0(r.setup.Attach), "s")
	set("resilience.replay_us", replay.meanUs(), "us")
	set("resilience.replay_calls", float64(replay.calls), "count")
	set("resilience.replay_hit_ratio", replay.hitRatio(), "ratio")
	set("replica.quorum_wait_us", meanUs(r.taps.ackNs.Load(), r.taps.acks.Load()), "us")
	set("replica.frames_per_post", perPost(r.taps.frames.Load()), "count")
	set("replica.apply_us", perPost(uint64(r.taps.applyNs.Load()))/1e3, "us")
	set("audit.sweep_ms", float64(sweep)/float64(time.Millisecond), "ms")
	var uops, allocs, allocBytes, gcCPU, allCPU float64
	for _, p := range u {
		uops += float64(p.completed())
		allocs += float64(p.end.allocs - p.begin.allocs)
		allocBytes += float64(p.end.allocBytes - p.begin.allocBytes)
		gcCPU += p.end.gcCPU - p.begin.gcCPU
		allCPU += p.end.allCPU - p.begin.allCPU
	}
	set("runtime.allocs_per_op", allocs/uops, "count")
	set("runtime.alloc_bytes_per_op", allocBytes/uops, "B")
	gcFrac := 0.0
	if allCPU > 0 {
		gcFrac = gcCPU / allCPU
	}
	set("runtime.gc_cpu_frac", gcFrac, "ratio")
	set("trace.overhead_pct", 100*(1-opsPerSec(t)/opsPerSec(u)), "%")

	pass := func(ps []*phaseResult, extra map[string]any) map[string]any {
		rec := mergeRecorders(ps)
		m := map[string]any{"passes": len(ps), "opsPerS": opsPerSec(ps), "attempted": rec.attempted, "failed": rec.failed}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}
	info["phases"] = map[string]any{
		"order":      "untraced, traced, traced, untraced",
		"opsPerPass": half,
		"untraced":   pass(u, nil),
		"traced":     pass(t, map[string]any{"freshSales": sales, "harvestComplete": complete}),
		"replayPass": map[string]any{"keyedCalls": replay.calls, "replayed": replay.replayed},
	}
	for _, name := range sortedKeys(m) {
		fmt.Printf("  %-32s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	urec := mergeRecorders(u)
	return &result{
		Attempted: urec.attempted + trec.attempted,
		Failed:    urec.failed + trec.failed,
		Metrics:   m,
	}, nil
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// layerAgg sums one span name's self time.
type layerAgg struct {
	n      int
	selfUs float64
}

// routeAgg is every harvested trace under one route.
type routeAgg struct {
	traces int
	durUs  float64 // Σ route span durations
	ackUs  float64 // Σ timed quorum waits inside the route (buys)
	layers map[string]*layerAgg
}

// harvested is a tracer's traces, reduced.
type harvested struct {
	routes map[string]*routeAgg
	spans  map[string]*layerAgg // across both routes
}

func (h *harvested) count(root string) int {
	if ra := h.routes[root]; ra != nil {
		return ra.traces
	}
	return 0
}

func (h *harvested) meanSelf(span string) float64 {
	if la := h.spans[span]; la != nil && la.n > 0 {
		return la.selfUs / float64(la.n)
	}
	return 0
}

// harvest reduces the /quote and /buy request traces; other roots
// (auditor sweeps) are skipped.
func harvest(traces []*trace.TraceRecord) *harvested {
	h := &harvested{routes: map[string]*routeAgg{}, spans: map[string]*layerAgg{}}
	for _, tr := range traces {
		if tr.Root != rootQuote && tr.Root != rootBuy {
			continue
		}
		ra := h.routes[tr.Root]
		if ra == nil {
			ra = &routeAgg{layers: map[string]*layerAgg{}}
			h.routes[tr.Root] = ra
		}
		ra.traces++
		self := selfTimes(tr.Spans)
		for i, s := range tr.Spans {
			if s.Name == tr.Root && s.ParentID == "" {
				ra.durUs += s.DurationSeconds * 1e6
			}
			for _, agg := range []map[string]*layerAgg{ra.layers, h.spans} {
				la := agg[s.Name]
				if la == nil {
					la = &layerAgg{}
					agg[s.Name] = la
				}
				la.n++
				la.selfUs += self[i]
			}
		}
	}
	return h
}

// selfTimes returns each span's self time in µs: its duration minus the
// union of the intervals of the spans nested in it, clipped to its own.
// A span nests in its recorded parent or, when a sibling's interval
// strictly contains it, in the innermost such sibling: a span whose
// caller dropped the context it started (market.ledger_append does)
// leaves its callee (store.append) recorded as a sibling although it
// ran inside it.
func selfTimes(spans []trace.SpanRecord) []float64 {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, len(spans))
	byID := make(map[string]int, len(spans))
	kids := map[int][]int{}
	for i, s := range spans {
		ivs[i] = iv{s.Start, s.Start.Add(time.Duration(s.DurationSeconds * float64(time.Second)))}
		byID[s.SpanID] = i
	}
	for i, s := range spans {
		if p, ok := byID[s.ParentID]; ok {
			kids[p] = append(kids[p], i)
		}
	}
	contains := func(a, b int) bool {
		return a != b && !ivs[a].lo.After(ivs[b].lo) && !ivs[a].hi.Before(ivs[b].hi) &&
			ivs[a].hi.Sub(ivs[a].lo) > ivs[b].hi.Sub(ivs[b].lo)
	}
	nested := map[int][]iv{}
	for i, s := range spans {
		p, ok := byID[s.ParentID]
		if !ok {
			continue
		}
		for moved := true; moved; {
			moved = false
			for _, c := range kids[p] {
				if contains(c, i) {
					p, moved = c, true
					break
				}
			}
		}
		nested[p] = append(nested[p], ivs[i])
	}
	out := make([]float64, len(spans))
	for i := range spans {
		lo, hi := ivs[i].lo, ivs[i].hi
		cs := nested[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo.Before(cs[b].lo) })
		var covered time.Duration
		var curLo, curHi time.Time
		open := false
		for _, c := range cs {
			if c.lo.Before(lo) {
				c.lo = lo
			}
			if c.hi.After(hi) {
				c.hi = hi
			}
			if !c.hi.After(c.lo) {
				continue
			}
			if open && !c.lo.After(curHi) {
				if c.hi.After(curHi) {
					curHi = c.hi
				}
				continue
			}
			if open {
				covered += curHi.Sub(curLo)
			}
			curLo, curHi, open = c.lo, c.hi, true
		}
		if open {
			covered += curHi.Sub(curLo)
		}
		out[i] = float64(hi.Sub(lo)-covered) / float64(time.Microsecond)
	}
	return out
}

// namedPerReq is the time per request that a named layer inside the
// route claims: the self times of every span of the layer table below
// the route span, plus the timed quorum wait. The route span's own self
// time is left out. It is the catch-all for everything in the handler
// without a span — JSON, middleware, the replay cache — and counting it
// would close every route by construction, since self times partition
// the route span.
func (ra *routeAgg) namedPerReq() float64 {
	if ra.traces == 0 {
		return 0
	}
	sum := ra.ackUs
	for _, l := range spanLayers {
		if l.span == rootQuote || l.span == rootBuy {
			continue
		}
		if la := ra.layers[l.span]; la != nil {
			sum += la.selfUs
		}
	}
	return sum / float64(ra.traces)
}

// unattributedPct is the share of the client's mean latency spent inside
// the route span but in no named layer. It can exceed the 10% target:
// it does wherever the handler does unspanned work.
func (ra *routeAgg) unattributedPct(clientMean float64) float64 {
	if ra.traces == 0 || clientMean <= 0 {
		return 0
	}
	route := ra.durUs / float64(ra.traces)
	return 100 * (route - ra.namedPerReq()) / clientMean
}

// table renders one route's closure check.
func (ra *routeAgg) table(root string, client summary, finite int) string {
	var b strings.Builder
	if ra.traces == 0 {
		fmt.Fprintf(&b, "%s: no traces harvested\n", root)
		return b.String()
	}
	route := ra.durUs / float64(ra.traces)
	fmt.Fprintf(&b, "%s: client mean %.1fµs (n=%d), route span mean %.1fµs (n=%d), client.wait %.1fµs (client mean − route span)\n",
		root, client.Mean, finite, route, ra.traces, client.Mean-route)
	fmt.Fprintf(&b, "  %-24s %8s %12s %12s\n", "layer (span)", "per req", "self µs", "self µs/req")
	for _, l := range spanLayers {
		la := ra.layers[l.span]
		if la == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-24s %8.2f %12.2f %12.2f\n", l.span, float64(la.n)/float64(ra.traces),
			la.selfUs/float64(la.n), la.selfUs/float64(ra.traces))
	}
	if ra.ackUs > 0 {
		fmt.Fprintf(&b, "  %-24s %8s %12s %12.2f\n", "quorum wait (timer)", "", "", ra.ackUs/float64(ra.traces))
	}
	named := ra.namedPerReq()
	rest := route - named
	pct := ra.unattributedPct(client.Mean)
	verdict := "within"
	if pct > 10 {
		verdict = "OVER"
	}
	fmt.Fprintf(&b, "  client.wait %.1fµs + named layers %.1fµs = %.1fµs vs client mean %.1fµs; unattributed (in the route, no named layer) %.1fµs = %.1f%% — %s the 10%% target\n",
		client.Mean-route, named, client.Mean-route+named, client.Mean, rest, pct, verdict)
	return b.String()
}

// replayProbe is the in-process pass: each keyed buy goes through
// Broker.BuyIdempotent with a timer inside its buy closure, so the
// difference — minus any quorum wait — is the replay cache's cost.
type replayProbe struct {
	*workload.BrokerClient
	keyPrefix string
	keys      atomic.Uint64

	mu       sync.Mutex
	calls    int
	replayed int
	cost     time.Duration
}

func (c *replayProbe) meanUs() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.cost) / float64(c.calls) / 1e3
}

func (c *replayProbe) hitRatio() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.replayed) / float64(c.calls)
}

// Quote implements workload.Client.
func (c *replayProbe) Quote(ctx context.Context, delta float64) (float64, float64, error) {
	ctx, sp := helperCtx(ctx)
	defer sp.End()
	return c.BrokerClient.Quote(ctx, delta)
}

// BuyAtPoint implements workload.Client.
func (c *replayProbe) BuyAtPoint(ctx context.Context, delta float64, key string) (workload.BuyResult, error) {
	return c.buy(ctx, key, func(ctx context.Context) (*market.Purchase, error) {
		return c.B.BuyAtPointContext(ctx, c.Model, delta)
	})
}

// BuyWithPriceBudget implements workload.Client.
func (c *replayProbe) BuyWithPriceBudget(ctx context.Context, budget float64, key string) (workload.BuyResult, error) {
	return c.buy(ctx, key, func(ctx context.Context) (*market.Purchase, error) {
		return c.B.BuyWithPriceBudgetContext(ctx, c.Model, budget)
	})
}

func (c *replayProbe) buy(ctx context.Context, key string, fn func(context.Context) (*market.Purchase, error)) (workload.BuyResult, error) {
	if key == "" && c.keyPrefix != "" {
		key = c.keyPrefix + fmt.Sprint(c.keys.Add(1))
	}
	ctx, sp := helperCtx(ctx)
	defer sp.End()
	var ack time.Duration
	ctx = context.WithValue(ctx, ackSinkKey{}, &ack)
	var inner time.Duration
	t0 := time.Now()
	p, replayed, err := c.B.BuyIdempotent(ctx, key, func(ctx context.Context) (*market.Purchase, error) {
		t := time.Now()
		p, err := fn(ctx)
		inner = time.Since(t)
		return p, err
	})
	total := time.Since(t0)
	if key != "" {
		c.mu.Lock()
		c.calls++
		if replayed {
			c.replayed++
		}
		c.cost += total - inner - ack
		c.mu.Unlock()
	}
	if err != nil {
		return workload.BuyResult{}, err
	}
	return workload.BuyResult{Seq: p.Seq, Price: p.Price, Replayed: replayed}, nil
}

// replayPass drives a small schedule in-process through replayProbe.
func (r *runner) replayPass(st *stack) (*replayProbe, error) {
	sched, err := r.spec.scheduleFor(r.menu, int(r.spec.capacity*r.seconds*0.05), r.phaseSeed(phaseReplay))
	if err != nil {
		return nil, err
	}
	c := &replayProbe{BrokerClient: &workload.BrokerClient{B: st.b, Model: markettest.Model}}
	if r.spec.keyed {
		c.keyPrefix = fmt.Sprintf("pb-%d-replay-", sched.Seed)
	}
	rep, err := workload.Run(context.Background(), c, sched, workload.Options{
		Workers: r.workers, ClosedLoop: true, SkipLedgerCheck: true,
	})
	if err != nil {
		return nil, fmt.Errorf("replay pass: %w", err)
	}
	r.reports = append(r.reports, rep)
	return c, nil
}
