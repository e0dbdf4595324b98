package main

// The load generator. Every phase replays a workload.Schedule through
// workload.Run with a fixed pool of load goroutines driving buyer
// sessions back to back; the client those goroutines call is wrapped
// here, so the benchmark times each op itself and keeps every raw
// sample.
//
// Closed loop, an op is timed from when it was issued. Open loop, the
// wrapper also gates every op on a Poisson schedule fixed in advance:
// whichever goroutine is free claims the next arrival slot, waits until
// it is due, and the op is timed from that due time. A stalled op thus
// charges its wait to every op queued behind it — the queue is in the
// schedule, not in the pool — and only the wake-up delay of a goroutine
// that was waiting early is the generator's own lateness.

import (
	"context"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/workload"
)

// opClass groups ops by what the server did. Buys (POST /buy, point and
// budget alike) split three ways: fresh sales, which pay for the journal
// and the quorum; replays answered from the idempotency cache; and
// no-sales refused with 422. Replays and no-sales are fast, and their
// share of a phase varies with the schedule, so the gated buy latency
// covers fresh sales only.
type opClass int

const (
	classQuote opClass = iota
	classBuy
	classReplay
	classNoSale
	numClasses
)

func (c opClass) String() string {
	return [...]string{"quote", "buy", "replay", "nosale"}[c]
}

// buyClass classifies a buy's outcome.
func buyClass(r workload.BuyResult, err error) opClass {
	switch {
	case err == nil && r.Replayed:
		return classReplay
	case workload.Classify(err) == workload.NoSale:
		return classNoSale
	}
	return classBuy
}

// recorder keeps every latency sample of a phase, in microseconds, by
// class.
type recorder struct {
	mu        sync.Mutex
	lat       [numClasses][]float64
	attempted int
	failed    int
}

// record files one op that was due (or issued) at start. Failed and
// shed ops count as missing every limit: their sample is +Inf.
func (r *recorder) record(c opClass, start time.Time, err error) {
	us := float64(time.Since(start)) / float64(time.Microsecond)
	out := workload.Classify(err)
	failed := out == workload.Failed || out == workload.Shed
	if failed {
		us = math.Inf(1)
	}
	r.mu.Lock()
	r.lat[c] = append(r.lat[c], us)
	r.attempted++
	if failed {
		r.failed++
	}
	r.mu.Unlock()
}

// route returns the samples of every op that went to c's route: quotes
// for classQuote, and all of fresh sales, replays and no-sales for a buy
// class.
func (r *recorder) route(c opClass) []float64 {
	if c == classQuote {
		return append([]float64(nil), r.lat[classQuote]...)
	}
	var out []float64
	for _, k := range []opClass{classBuy, classReplay, classNoSale} {
		out = append(out, r.lat[k]...)
	}
	return out
}

// pacer releases ops on a fixed schedule of arrival offsets.
type pacer struct {
	due    []time.Duration
	start  time.Time
	next   atomic.Int64
	wakers chan *waker // one per load goroutine

	mu         sync.Mutex
	late       []float64 // µs a goroutine woke after the slot it waited for was due
	backlogged int       // slots claimed after they were already due
	overrun    int       // claims past the end of the schedule
}

// newPacer draws n Poisson arrivals at rate ops/s from the given seed,
// for at most workers goroutines waiting at once.
func newPacer(rate float64, n int, seed uint64, workers int) (*pacer, error) {
	r := rng.Stream(seed, 0xA5)
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += r.Exponential(rate)
		due[i] = time.Duration(t * float64(time.Second))
	}
	p := &pacer{due: due, wakers: make(chan *waker, workers)}
	for i := 0; i < workers; i++ {
		w, err := newWaker()
		if err != nil {
			p.close()
			return nil, err
		}
		p.wakers <- w
	}
	return p, nil
}

// close releases the wakers; call it once the phase is over.
func (p *pacer) close() {
	for len(p.wakers) > 0 {
		(<-p.wakers).close()
	}
}

// begin anchors the schedule at now; call it right before the phase.
func (p *pacer) begin() { p.start = time.Now() }

// wait claims the next slot, sleeps until it is due, and returns the
// due time the op is charged from.
func (p *pacer) wait() time.Time {
	i := int(p.next.Add(1) - 1)
	if i >= len(p.due) {
		p.mu.Lock()
		p.overrun++
		p.mu.Unlock()
		return time.Now()
	}
	due := p.start.Add(p.due[i])
	if time.Until(due) > 0 {
		w := <-p.wakers
		w.sleepUntil(due)
		p.wakers <- w
		late := float64(time.Since(due)) / float64(time.Microsecond)
		p.mu.Lock()
		p.late = append(p.late, late)
		p.mu.Unlock()
		return due
	}
	p.mu.Lock()
	p.backlogged++
	p.mu.Unlock()
	return due
}

// timedClient wraps the client under load: it times every op into rec,
// paces ops when pace is set, and gives keyless buys a unique
// Idempotency-Key when keyPrefix is set. Ledger reads come from led
// (in-process) so the invariant check costs no HTTP round trip, and the
// first Ledger call marks the end of the phase.
type timedClient struct {
	inner     workload.Client
	led       workload.Client
	pace      *pacer
	rec       *recorder
	keyPrefix string
	keys      atomic.Uint64
	endOnce   sync.Once
	onEnd     func()
}

func (c *timedClient) begin() time.Time {
	if c.pace != nil {
		return c.pace.wait()
	}
	return time.Now()
}

func (c *timedClient) key(k string) string {
	if k != "" || c.keyPrefix == "" {
		return k
	}
	return c.keyPrefix + strconv.FormatUint(c.keys.Add(1), 10)
}

// Menu implements workload.Client.
func (c *timedClient) Menu(ctx context.Context) ([]pricing.PriceError, error) {
	return c.inner.Menu(ctx)
}

// Quote implements workload.Client.
func (c *timedClient) Quote(ctx context.Context, delta float64) (float64, float64, error) {
	t0 := c.begin()
	price, expErr, err := c.inner.Quote(ctx, delta)
	c.rec.record(classQuote, t0, err)
	return price, expErr, err
}

// BuyAtPoint implements workload.Client.
func (c *timedClient) BuyAtPoint(ctx context.Context, delta float64, key string) (workload.BuyResult, error) {
	key = c.key(key)
	t0 := c.begin()
	r, err := c.inner.BuyAtPoint(ctx, delta, key)
	c.rec.record(buyClass(r, err), t0, err)
	return r, err
}

// BuyWithPriceBudget implements workload.Client.
func (c *timedClient) BuyWithPriceBudget(ctx context.Context, budget float64, key string) (workload.BuyResult, error) {
	key = c.key(key)
	t0 := c.begin()
	r, err := c.inner.BuyWithPriceBudget(ctx, budget, key)
	c.rec.record(buyClass(r, err), t0, err)
	return r, err
}

// Ledger implements workload.Client.
func (c *timedClient) Ledger(ctx context.Context) (workload.LedgerSummary, error) {
	if c.onEnd != nil {
		c.endOnce.Do(c.onEnd)
	}
	return c.led.Ledger(ctx)
}
