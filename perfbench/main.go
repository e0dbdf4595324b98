// Command perfbench is the repository's serving benchmark. It stands the
// marketplace's serving stack up inside one process, drives it over
// loopback HTTP with internal/workload schedules, checks that every
// answer was correct, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run harvests the program's own spans and the benchmark's timers into
// per-layer metrics instead. See README.md in this directory.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload browse-mem --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/datamarket/mbp/internal/httpapi"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/store"
	"github.com/datamarket/mbp/internal/workload"
)

// runDeadline bounds a whole run; past it the process exits non-zero
// without printing a result.
const runDeadline = 170 * time.Second

// genLateLimitUs flags a run invalid when the load generator's own
// wake-up lateness at p99 exceeds it: the program did not fall behind,
// the generator did.
const genLateLimitUs = 2000

func main() {
	var (
		wlName  = flag.String("workload", "browse-mem", "workload: browse-mem | checkout-wal | checkout-quorum")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same schedules")
		seconds = flag.Int("seconds", 20, "measured seconds; every phase's op count is sized from it")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		workdir = flag.String("workdir", ".bench_build", "directory for journals (removed after the run)")
		source  = flag.String("source", "", "source digest or commit to record in the output")
	)
	flag.Parse()
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(3)
	})
	spec, err := workloadByName(*wlName)
	if err == nil && (*seconds < 1 || *traced < 0 || *traced > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := &runner{spec: spec, seed: *seed, seconds: float64(*seconds), traced: *traced == 1, dir: dir, source: *source}
	res, err := r.run()
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, name := range sortedKeys(res.Metrics) {
		if v := res.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, v)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one invocation.
type runner struct {
	spec    *workloadSpec
	seed    uint64
	seconds float64
	traced  bool
	dir     string
	source  string

	logger  *slog.Logger
	workers int
	hc      *http.Client
	menu    []pricing.PriceError
	taps    *taps         // the benchmark's timers (traced runs)
	tracer  *trace.Tracer // the harvested tracer (traced runs)
	front   []httpapi.Option

	seedPaid float64 // what the seeded journal's sales paid
	setup    setupInfo
	stacks   int

	failures        []string
	auditSweeps     uint64
	auditViolations uint64

	// Per stack: every workload.Run report against it, and the sales it
	// started with (the recovered journal).
	reports    []*workload.Report
	startSales int
	startPaid  float64
}

func (r *runner) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// phase names; each phase draws its schedule from its own derived seed.
const (
	phaseWarm = iota + 1
	phaseOpen
	phaseClosed
	phaseUntraced
	phaseTraced
	phaseReplay
	phaseSeed
)

func (r *runner) phaseSeed(phase int) uint64 { return r.seed*16 + uint64(phase) }

func (r *runner) client(url string) workload.Client {
	return workload.NewHTTPClient(url, markettest.ModelName, r.hc)
}

func (r *runner) run() (*result, error) {
	r.logger = slog.New(trace.NewLogHandler(slog.NewJSONHandler(io.Discard, nil)))
	slog.SetDefault(r.logger)
	r.workers = 2
	if n := runtime.NumCPU(); n < r.workers {
		r.workers = n
	}
	spec := r.spec
	if r.traced {
		// The served API keeps a ring the size of the deployed default;
		// the benchmark's tracer, sized to keep every trace of the traced
		// phase, becomes trace.Default before any goroutine starts.
		r.taps = &taps{}
		r.front = []httpapi.Option{httpapi.WithTracer(trace.NewTracer(trace.DefaultCapacity))}
		r.tracer = trace.NewTracer(int(spec.capacity*r.seconds*0.35)*6/5 + 8192)
		trace.Default = r.tracer
	}
	tr := &http.Transport{MaxConnsPerHost: r.workers, MaxIdleConnsPerHost: r.workers, DisableCompression: true}
	defer tr.CloseIdleConnections()
	r.hc = &http.Client{Transport: tr}

	// The fixture's one-time training is the broker's build step, not
	// set-up: pay it before any timing.
	fixture, err := newBroker(spec)
	if err != nil {
		return nil, fmt.Errorf("building the broker fixture: %w", err)
	}
	if r.menu, err = fixture.PriceErrorCurve(markettest.Model); err != nil {
		return nil, err
	}
	if spec.seedSales > 0 {
		if err := r.seedJournal(); err != nil {
			return nil, err
		}
	}

	// Stand-ups that only time set-up; a traced run keeps the last.
	var kept *stack
	for i := 0; i < spec.setupReps; i++ {
		st, err := r.standUp()
		if err != nil {
			return nil, err
		}
		if r.traced && i == spec.setupReps-1 {
			kept = st
			break
		}
		if err := r.tearDown(st); err != nil {
			return nil, err
		}
	}

	info := map[string]any{
		"workload":   spec.name,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"traced":     r.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numCpu":     runtime.NumCPU(),
		"goVersion":  runtime.Version(),
		"source":     r.source,
		"workers":    r.workers,
		"fsync":      "none (in-memory ledger)",
		"ack":        "none",
		"sellers":    spec.sellers,
	}
	if spec.durable {
		info["fsync"] = "always"
	}
	if spec.followers > 0 {
		info["ack"] = fmt.Sprintf("quorum (%d followers)", spec.followers)
	}

	var res *result
	if r.traced {
		if err := r.warmUp(kept, 0.1); err != nil {
			return nil, err
		}
		res, err = r.tracedRun(kept, info)
		if err == nil {
			err = r.tearDown(kept)
		}
	} else {
		res, err = r.untracedRun(info)
	}
	if err != nil {
		return nil, err
	}
	r.setup.MedianS = median(r.setup.Seconds)
	if !r.traced {
		res.Metrics["setup_s"] = metric{r.setup.MedianS, "s"}
	}
	info["setup"] = r.setup
	info["audit"] = map[string]any{"sweeps": r.auditSweeps, "violations": r.auditViolations}
	info["failures"] = r.failures
	res.Correct = len(r.failures) == 0
	printJSON("run", info)
	for _, f := range r.failures {
		fmt.Println("FAIL", f)
	}
	return res, nil
}

// setupInfo records how set-up went.
type setupInfo struct {
	MedianS   float64   `json:"medianS"`
	Seconds   []float64 `json:"seconds"`
	Recover   []float64 `json:"recoverSeconds,omitempty"`
	Attach    []float64 `json:"attachSeconds,omitempty"`
	Recovered int       `json:"recoveredTransactions"`
}

func (r *runner) seedDir() string { return filepath.Join(r.dir, "seed") }

// standUp builds a fresh stack in its own directory — empty, or a copy
// of the seeded journal — timing it as one set-up sample.
func (r *runner) standUp() (*stack, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("stack-%d", r.stacks))
	r.stacks++
	r.reports, r.startSales, r.startPaid = nil, 0, 0
	if r.spec.seedSales > 0 {
		if err := copyDir(r.seedDir(), filepath.Join(dir, "leader")); err != nil {
			return nil, fmt.Errorf("copying the seeded journal: %w", err)
		}
		r.startSales, r.startPaid = r.spec.seedSales, r.seedPaid
	}
	runtime.GC() // every stand-up starts from the same heap state
	t0 := time.Now()
	st, err := buildStack(r.spec, dir, r.logger, r.taps, r.front...)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setup.Seconds = append(r.setup.Seconds, time.Since(t0).Seconds())
	if r.spec.seedSales > 0 {
		r.setup.Recover = append(r.setup.Recover, st.recoverDur.Seconds())
		r.setup.Attach = append(r.setup.Attach, st.attachDur.Seconds())
		r.setup.Recovered = st.rs.Transactions
		if st.rs.Transactions != r.spec.seedSales {
			r.fail("recovery: %d transactions recovered, %d seeded", st.rs.Transactions, r.spec.seedSales)
		}
	}
	return st, nil
}

// tearDown runs the stack's correctness gates, then closes it. Its
// journals stay on disk until the run is over: unlinking fsynced files
// on a discard-mounted ext4 took up to 2 s a stack, and the disk work it
// starts would land on the next segment's fsyncs.
func (r *runner) tearDown(st *stack) error {
	r.checkLedger(st)
	if r.spec.followers > 0 {
		if err := st.converged(15 * time.Second); err != nil {
			r.fail("replication: %v", err)
		}
	}
	for _, rep := range r.reports {
		if !rep.Invariants.Passed {
			r.fail("invariants: %s", strings.Join(rep.Invariants.Failures, "; "))
		}
	}
	sum := st.auditor.Summary()
	r.auditSweeps += sum.Sweeps
	r.auditViolations += sum.ViolationsTotal
	return st.close()
}

// checkLedger reconciles the stack's ledger with everything bought from
// it: one row per fresh sale, and the gross equal to what was paid.
func (r *runner) checkLedger(st *stack) {
	sales, paid := r.startSales, r.startPaid
	for _, rep := range r.reports {
		sales += rep.Revenue.Sales
		paid += rep.Invariants.HarnessPaid
	}
	rows, gross, _ := st.b.LedgerTotals()
	if rows != sales {
		r.fail("ledger: %d rows, harness made %d sales", rows, sales)
	}
	if math.Abs(gross-paid) > 1e-9*(1+math.Abs(gross)) {
		r.fail("ledger: gross %v, harness paid %v", gross, paid)
	}
}

// seedJournal writes spec.seedSales keyed sales, untimed, into a journal
// every stand-up recovers a copy of: a fresh broker, no fsync. Written
// every run, so every entry is inside the replay TTL and recovery seeds
// the replay cache in full.
func (r *runner) seedJournal() error {
	b, err := newBroker(r.spec)
	if err != nil {
		return err
	}
	d, rs, err := market.OpenDurableLedger(r.seedDir(), store.Options{Policy: store.FsyncNever})
	if err != nil {
		return err
	}
	b.AttachDurableLedger(d, rs)
	r.seedPaid, err = r.keyedBuys(b, r.spec.seedSales, "seed", r.phaseSeed(phaseSeed))
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seeding the journal: %w", err)
	}
	return nil
}

// keyedBuys makes n keyed point buys in-process over r.workers
// goroutines, each at a menu row drawn from seed, and returns what they
// paid.
func (r *runner) keyedBuys(b *market.Broker, n int, prefix string, seed uint64) (float64, error) {
	workers := r.workers
	paid := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				delta := r.menu[rng.Stream(seed, uint64(i)+1).Intn(len(r.menu))].Delta
				key := fmt.Sprintf("%s-%d-%d", prefix, seed, i)
				ctx, sp := helperCtx(context.Background())
				p, _, err := b.BuyIdempotent(ctx, key, func(ctx context.Context) (*market.Purchase, error) {
					return b.BuyAtPointContext(ctx, markettest.Model, delta)
				})
				sp.End()
				if err != nil {
					errs[w] = err
					return
				}
				paid[w] += p.Price
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for _, p := range paid {
		total += p
	}
	return total, errors.Join(errs...)
}

// copyDir copies the regular files of src into a new directory dst and
// syncs them, so the copy's writeback does not land on timed fsyncs.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		f, err := os.OpenFile(filepath.Join(dst, e.Name()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// probe is a process snapshot at a phase boundary.
type probe struct {
	t          time.Time
	cpu        time.Duration // user+sys
	allocs     uint64
	allocBytes uint64
	gcCPU      float64 // seconds, runtime/metrics estimate
	allCPU     float64
}

var probeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeProbe() probe {
	s := make([]metrics.Sample, len(probeNames))
	for i, n := range probeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	p := probe{t: time.Now(), cpu: cpuTime()}
	p.allocs = s[0].Value.Uint64()
	p.allocBytes = s[1].Value.Uint64()
	p.gcCPU = s[2].Value.Float64()
	p.allCPU = s[3].Value.Float64()
	return p
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phaseResult is one driven phase.
type phaseResult struct {
	rec        *recorder
	rep        *workload.Report
	begin, end probe
}

func (p *phaseResult) elapsed() time.Duration { return p.end.t.Sub(p.begin.t) }

func (p *phaseResult) completed() int { return p.rec.attempted - p.rec.failed }

func (p *phaseResult) opsPerSec() float64 {
	return float64(p.completed()) / p.elapsed().Seconds()
}

func (p *phaseResult) cpuUsPerOp() float64 {
	return float64(p.end.cpu-p.begin.cpu) / float64(time.Microsecond) / float64(p.completed())
}

// mergeRecorders pools the samples and counts of several phases.
func mergeRecorders(ps []*phaseResult) *recorder {
	out := &recorder{}
	for _, p := range ps {
		for c := range p.rec.lat {
			out.lat[c] = append(out.lat[c], p.rec.lat[c]...)
		}
		out.attempted += p.rec.attempted
		out.failed += p.rec.failed
	}
	return out
}

// opsPerSec is the completed ops of several phases over their summed
// elapsed time.
func opsPerSec(ps []*phaseResult) float64 {
	n, secs := 0, 0.0
	for _, p := range ps {
		n += p.completed()
		secs += p.elapsed().Seconds()
	}
	return float64(n) / secs
}

// runPhase drives sched through client with r.workers load goroutines
// back to back, gated by pace when it is set (open loop). Ledger checks
// read st's broker in-process.
func (r *runner) runPhase(name string, st *stack, client workload.Client, sched *workload.Schedule, pace *pacer) (*phaseResult, error) {
	pr := &phaseResult{rec: &recorder{}}
	tc := &timedClient{
		inner: client,
		led:   &workload.BrokerClient{B: st.b, Model: markettest.Model},
		pace:  pace,
		rec:   pr.rec,
		onEnd: func() { pr.end = takeProbe() },
	}
	if r.spec.keyed {
		tc.keyPrefix = fmt.Sprintf("pb-%d-%s-", sched.Seed, name)
	}
	// Start every phase from a collected heap, so no phase inherits the
	// previous one's GC debt.
	runtime.GC()
	pr.begin = takeProbe()
	if pace != nil {
		pace.begin()
	}
	rep, err := workload.Run(context.Background(), tc, sched, workload.Options{
		Workers:         r.workers,
		ClosedLoop:      true,
		SkipLedgerCheck: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%s phase: %w", name, err)
	}
	pr.rep = rep
	r.reports = append(r.reports, rep)
	return pr, nil
}

// warmUp drives share × a run's closed-loop work through st, untimed and
// on its own seed: connections, heap and code paths.
func (r *runner) warmUp(st *stack, share float64) error {
	sched, err := r.spec.scheduleFor(r.menu, int(r.spec.capacity*r.seconds*share), r.phaseSeed(phaseWarm)^uint64(r.stacks)<<40)
	if err != nil {
		return err
	}
	_, err = r.runPhase("warm-up", st, r.client(st.srv.url), sched, nil)
	return err
}

// untracedRun measures the end-to-end metrics. The run is spec.segments
// segments, each on a freshly stood-up stack: the ledger, the journal
// and the replay caches grow within a segment only, so the segments are
// alike. In every segment an open-loop phase at the workload's fixed
// Poisson rate, timed from when each op was due, is followed by a
// closed-loop phase of r.workers connections back to back. The gated
// figures come from the closed-loop phases of all segments pooled:
// percentiles over every raw sample, ops/s and CPU per op over the
// summed ops, time and CPU. Pooling rather than a median over segments
// keeps a figure from flipping when a segment-long stall (a noisy
// neighbour, a slow vCPU wake-up) hits about half the segments. The
// open-loop figures are reported beside them, ungated (see README.md:
// on a shared 2-core box an open-loop queue in front of fsync either
// stays short or explodes, so its percentiles swing far more between
// runs than any bound).
func (r *runner) untracedRun(info map[string]any) (*result, error) {
	spec := r.spec
	openOps := int(spec.openRate * r.seconds * 0.25 / float64(spec.segments))
	closedOps := int(spec.capacity * r.seconds * 0.075)
	var open, closed []*phaseResult
	var late []float64
	backlogged, overrun := 0, 0
	for i := 0; i < spec.segments; i++ {
		st, err := r.standUp()
		if err != nil {
			return nil, err
		}
		if err := r.warmUp(st, 0.02); err != nil {
			return nil, err
		}
		seg := uint64(i+1) << 40
		sched, err := spec.scheduleFor(r.menu, openOps, r.phaseSeed(phaseOpen)^seg)
		if err != nil {
			return nil, err
		}
		pace, err := newPacer(spec.openRate, issuedOps(sched)*21/20+16, r.phaseSeed(phaseOpen)^seg, r.workers)
		if err != nil {
			return nil, err
		}
		pr, err := r.runPhase(fmt.Sprintf("open-%d", i), st, r.client(st.srv.url), sched, pace)
		pace.close()
		if err != nil {
			return nil, err
		}
		open = append(open, pr)
		late = append(late, pace.late...)
		backlogged += pace.backlogged
		overrun += pace.overrun

		sched, err = spec.scheduleFor(r.menu, closedOps, r.phaseSeed(phaseClosed)^seg)
		if err != nil {
			return nil, err
		}
		if pr, err = r.runPhase(fmt.Sprintf("closed-%d", i), st, r.client(st.srv.url), sched, nil); err != nil {
			return nil, err
		}
		closed = append(closed, pr)
		if err := r.tearDown(st); err != nil {
			return nil, err
		}
	}

	// Per-segment closed-loop figures for the record, then the pooled
	// ones that are gated.
	var q50, q90, b50, b90, ops, cpu []float64
	var cpuTotal time.Duration
	for _, c := range closed {
		q, b := summarize(c.rec.lat[classQuote]), summarize(c.rec.lat[classBuy])
		q50, q90 = append(q50, q.P50), append(q90, q.P90)
		b50, b90 = append(b50, b.P50), append(b90, b.P90)
		ops, cpu = append(ops, c.opsPerSec()), append(cpu, c.cpuUsPerOp())
		cpuTotal += c.end.cpu - c.begin.cpu
	}
	crec, orec := mergeRecorders(closed), mergeRecorders(open)
	cq, cb := summarize(crec.lat[classQuote]), summarize(crec.lat[classBuy])
	oq, ob, lateSum := summarize(orec.lat[classQuote]), summarize(orec.lat[classBuy]), summarize(late)
	completed := float64(crec.attempted - crec.failed)
	opsPerS := opsPerSec(closed)
	cpuPerOp := float64(cpuTotal) / float64(time.Microsecond) / completed
	valid := !(lateSum.P99 > genLateLimitUs) && overrun == 0
	info["phases"] = map[string]any{
		"segments": spec.segments,
		"closed": map[string]any{
			"workers": r.workers, "opsPerSegment": closedOps,
			"quoteP50Us": q50, "quoteP90Us": q90, "buyP50Us": b50, "buyP90Us": b90,
			"opsPerS": ops, "cpuUsPerOp": cpu,
			"pooledQuoteUs": cq, "pooledBuyUs": cb,
			"pooledReplayUs": summarize(crec.lat[classReplay]), "pooledNoSaleUs": summarize(crec.lat[classNoSale]),
			"revenueRatio": revenueRatios(closed),
		},
		"open": map[string]any{
			"rateOpsPerS": spec.openRate, "opsPerSegment": openOps,
			"pooledQuoteUs": oq, "pooledBuyUs": ob,
			"generatorLateUs": lateSum, "backloggedSlots": backlogged, "overrunSlots": overrun, "valid": valid,
			"revenueRatio": revenueRatios(open),
		},
	}
	info["valid"] = valid
	if !valid {
		fmt.Fprintf(os.Stderr, "perfbench: INVALID run: generator lateness p99 %.0fµs (limit %dµs), %d overrun slots\n",
			lateSum.P99, genLateLimitUs, overrun)
	}
	fmt.Printf("closed loop, %d connections, %d segments pooled: ops/s %.0f, CPU µs/op %.1f\n", r.workers, spec.segments, opsPerS, cpuPerOp)
	fmt.Printf("  %s\n", latencyLine(cq, cb))
	fmt.Printf("open loop, Poisson %.0f ops/s timed from due (not gated): %s; generator late p99 %.0fµs (n=%d), %d of %d slots backlogged\n",
		spec.openRate, latencyLine(oq, ob), lateSum.P99, lateSum.N, backlogged, oq.N+ob.N)

	return &result{
		Attempted: crec.attempted + orec.attempted,
		Failed:    crec.failed + orec.failed,
		Metrics: map[string]metric{
			"quote_p50_us":  {cq.P50, "us"},
			"quote_p90_us":  {cq.P90, "us"},
			"buy_p50_us":    {cb.P50, "us"},
			"buy_p90_us":    {cb.P90, "us"},
			"ops_per_s":     {opsPerS, "1/s"},
			"cpu_us_per_op": {cpuPerOp, "us"},
			"rss_mb":        {peakRSSMB(), "MB"},
		},
	}, nil
}

// latencyLine prints quote and buy percentiles with their sample counts.
func latencyLine(q, b summary) string {
	return fmt.Sprintf("quote p50 %.1fµs p90 %.1fµs p99 %.1fµs max %.1fµs (n=%d), buy p50 %.1fµs p90 %.1fµs p99 %.1fµs max %.1fµs (n=%d)",
		q.P50, q.P90, q.P99, q.Max, q.N, b.P50, b.P90, b.P99, b.Max, b.N)
}

// revenueRatios is each segment's realized revenue over the DP optimum.
func revenueRatios(prs []*phaseResult) []float64 {
	out := make([]float64, len(prs))
	for i, p := range prs {
		out[i] = p.rep.Revenue.Ratio
	}
	return out
}

func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Printf("%s: <%v>\n", label, err)
		return
	}
	fmt.Printf("%s %s\n", label, b)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
