// Package market wires the three MBP agents together: the seller who
// supplies the dataset and market research, the broker who trains the
// optimal model once, prices its noisy versions, and serves buyers in
// real time, and the buyer who purchases through one of the three
// interaction options of Section 3.2:
//
//  1. a point on the price–error curve (an explicit NCP δ),
//  2. an error budget ϵ̂ (cheapest version at least that accurate), or
//  3. a price budget p̂ (most accurate version within the budget).
//
// The broker is safe for concurrent use; cmd/mbpmarket exposes it over
// HTTP as the "real-time interaction" demonstration.
package market

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/dataset"
	"github.com/datamarket/mbp/internal/loss"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/revopt"
	"github.com/datamarket/mbp/internal/rng"
)

// Seller owns a dataset for sale plus the market research that drives
// pricing (Figure 1A, Figure 2a).
type Seller struct {
	// Name identifies the seller in ledgers.
	Name string
	// Data is the train/test pair offered.
	Data dataset.Split
	// Research holds the buyer value and demand curves over x = 1/NCP.
	Research *curves.Market
}

// Purchase is what a buyer takes home (Figure 1C, step 4).
type Purchase struct {
	// Instance is the noisy model instance.
	Instance *ml.Instance
	// Model identifies the hypothesis space.
	Model ml.Model
	// Delta is the NCP used.
	Delta float64
	// ExpectedError is the quoted E[ϵ(ĥδ, D)].
	ExpectedError float64
	// Price is what the buyer paid.
	Price float64
	// Seq is the sale's ledger sequence number, which doubles as the
	// id of the RNG stream that drew the instance's noise: a purchase
	// is deterministic in (broker seed, Seq, δ), regardless of which
	// goroutine executed it.
	Seq int
	// Shares is the sale's per-seller attribution table and BrokerShare
	// the broker's commission cut; together they reconstruct Price
	// exactly (see SellerShare). They mirror the ledger row's table.
	Shares      []SellerShare
	BrokerShare float64
}

// Transaction is a ledger row.
type Transaction struct {
	// Seq is a monotonically increasing sequence number.
	Seq int
	// Model sold.
	Model ml.Model
	// Delta, Price, ExpectedError mirror the purchase.
	Delta, Price, ExpectedError float64
	// Stamp carries the logical-clock value and wall-clock instant the
	// row was recorded, correlating WAL rows with /debug/traces and
	// the access log. Wall time is excluded from determinism
	// comparisons.
	Stamp Stamp
	// Shares is the per-seller attribution table in force when the sale
	// executed: each contributing seller's weight and exact slice of
	// the price. BrokerShare is the broker's commission cut. The split
	// is quantized so Σ Shares[i].Amount + BrokerShare == Price holds
	// exactly under float64 addition (see splitPrice). Rows journaled
	// before the v2 upgrade carry neither (nil / 0) and are accounted
	// as legacy gross. In the WAL the table rides inside the same v2
	// record envelope as the transaction; in JSON snapshots and the
	// /ledger response it appears inline here.
	Shares      []SellerShare `json:"shares,omitempty"`
	BrokerShare float64       `json:"brokerShare,omitempty"`
}

// offer is the broker's per-model state: the one-time-trained optimum
// plus the published pricing artifacts.
type offer struct {
	optimal   *ml.Instance
	transform *pricing.Transform
	curve     *pricing.Curve
	epsilon   loss.Loss
	evalOn    *dataset.Dataset // split the transform's errors were measured on
	// extras holds the transforms for additional buyer-selectable error
	// functions ϵ, keyed by loss name (Section 3.2: the buyer picks ϵ
	// from among the ones the broker supports).
	extras map[string]*pricing.Transform
}

// transformFor resolves an ϵ name: empty means the default.
func (o *offer) transformFor(epsName string) (*pricing.Transform, error) {
	if epsName == "" || epsName == o.epsilon.Name() {
		return o.transform, nil
	}
	if tr, ok := o.extras[epsName]; ok {
		return tr, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownEpsilon, epsName)
}

// Broker mediates between a seller and buyers (Figure 1B). It charges
// the seller a commission rate on every sale.
//
// The serving hot path — QuoteContext, the Buy*Context options, and
// the menu readers — is lock-free: published offers live in an
// immutable snapshot behind an atomic pointer, each sale draws its
// noise from an independent seed-derived RNG stream (stream id =
// ledger sequence number), and the ledger is sharded so concurrent
// appends contend only per stripe. Only offer publication (AddModel and friends)
// serializes, under b.mu, via copy-on-write on the snapshot.
type Broker struct {
	// mu serializes offer publication: writers copy the current offer
	// table, extend it, and atomically install the new snapshot. It
	// also guards r, the publish-time Monte-Carlo randomness. The
	// serving path never takes it.
	mu         sync.Mutex
	seller     *Seller
	mech       noise.Mechanism
	r          *rng.RNG
	saleSeed   uint64
	commission float64
	offers     atomic.Pointer[offerTable]
	// stakes is the published attribution stake table: the sellers (and
	// weights) every sale splits its price across. NewBroker seeds it
	// with the single founding seller at weight 1; SetSellerStakes and
	// WithdrawSeller replace it copy-on-write under b.mu, and the sell
	// path reads it lock-free (see attribution.go).
	stakes atomic.Pointer[stakeTable]
	// ledger holds the recorded rows: the broker's own in-memory ledger,
	// or the durable ledger's after AttachDurableLedger. All reads go
	// straight to it.
	ledger *shardedLedger
	// journal is the write-ahead journal behind ledger, nil for an
	// in-memory broker. When set, sales record and release sequence
	// numbers through it, and stake and curve changes are journaled.
	journal *DurableLedger
	// logical is the monotonic logical clock stamped onto ledger rows;
	// clock supplies the wall half of the stamp (injectable, see
	// SetClock).
	logical atomic.Uint64
	clock   func() time.Time
	// replay is the idempotency cache behind BuyIdempotent: a client
	// retrying a purchase under the same key gets the original
	// Purchase back (same Seq, same weights, same ledger row) instead
	// of being charged twice.
	replay *resilience.ReplayCache[*Purchase]
	// follower, leaderHint and barrier implement the replication
	// stances (see follower.go): a follower broker refuses sells until
	// promoted, and a quorum-ack leader blocks acknowledgements on the
	// barrier until enough replicas hold the journaled frame.
	follower   atomic.Bool
	leaderHint atomic.Pointer[string]
	barrier    atomic.Pointer[ackBarrier]
}

// Replay-cache sizing: entries expire ReplayTTL after the purchase
// completes (long enough to cover any sane client retry schedule),
// and at most ReplayCapacity completed purchases are retained.
const (
	ReplayCapacity = 4096
	ReplayTTL      = 10 * time.Minute
)

// offerTable is an immutable snapshot of the published offers. Readers
// load it atomically and navigate without coordination; writers never
// mutate a published table, they replace it wholesale.
type offerTable struct {
	offers map[ml.Model]*offer
}

// table returns the current offer snapshot's map (never nil).
func (b *Broker) table() map[ml.Model]*offer {
	return b.offers.Load().offers
}

// lookup resolves model m in the current snapshot without locking.
func (b *Broker) lookup(m ml.Model) (*offer, bool) {
	off, ok := b.table()[m]
	return off, ok
}

// publishLocked installs off under m via copy-on-write. Callers hold
// b.mu, which serializes concurrent publishers; readers keep serving
// the previous snapshot until the Store and never observe a torn
// table.
func (b *Broker) publishLocked(m ml.Model, off *offer) {
	old := b.table()
	next := make(map[ml.Model]*offer, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[m] = off
	b.offers.Store(&offerTable{offers: next})
}

// NewBroker creates a broker for the seller using the given noise
// mechanism. commission ∈ [0, 1) is the broker's cut of each sale.
func NewBroker(seller *Seller, mech noise.Mechanism, seed uint64, commission float64) (*Broker, error) {
	if seller == nil || seller.Data.Train == nil || seller.Data.Test == nil {
		return nil, errors.New("market: seller must provide a train/test dataset pair")
	}
	if seller.Research != nil {
		if err := seller.Research.Validate(); err != nil {
			return nil, fmt.Errorf("market: invalid market research: %w", err)
		}
	}
	if mech == nil {
		return nil, errors.New("market: nil mechanism")
	}
	if commission < 0 || commission >= 1 {
		return nil, fmt.Errorf("market: commission %v outside [0, 1)", commission)
	}
	b := &Broker{
		seller:     seller,
		mech:       mech,
		r:          rng.New(seed),
		saleSeed:   seed,
		commission: commission,
		ledger:     &shardedLedger{},
		clock:      time.Now,
		replay:     resilience.NewReplayCache[*Purchase](ReplayCapacity, ReplayTTL),
	}
	b.offers.Store(&offerTable{offers: make(map[ml.Model]*offer)})
	// Every market starts with its founding seller holding the whole
	// stake; multi-seller attribution arrives via SetSellerStakes.
	b.stakes.Store(&stakeTable{stakes: []SellerStake{{ID: b.founderID(), Weight: 1}}})
	return b, nil
}

// AddModelOptions configure offer construction.
type AddModelOptions struct {
	// Train are the training options for the one-time optimum.
	Train ml.Options
	// Epsilon is the buyer-facing error function ϵ; nil picks the
	// model's surrogate loss (Table 2).
	Epsilon loss.Loss
	// OnTrain evaluates ϵ on the train split instead of the default
	// test split, per the buyer's preference in Section 3.1.
	OnTrain bool
	// MCSamples is the Monte-Carlo sample count per grid point for the
	// empirical transform (default 200; the paper uses 2000).
	MCSamples int
	// ForceEmpirical disables the closed-form transform fast path
	// (linear regression under the square loss admits an exact affine
	// transform); used by the ablation benchmarks.
	ForceEmpirical bool
	// ExtraEpsilons lists additional error functions the buyer may
	// select (e.g. the 0/1 rate next to the logistic loss, per
	// Table 2's classification rows). Each gets its own empirical
	// transform over the same price curve.
	ExtraEpsilons []loss.Loss
}

// AddModel trains the optimal instance for model m (the broker's
// one-time cost), builds the error transform on the research grid, runs
// revenue optimization, and publishes the resulting price curve.
// It requires the seller to have provided market research.
func (b *Broker) AddModel(m ml.Model, opts AddModelOptions) error {
	// The publish pipeline roots its own trace: /debug/traces shows the
	// one-time broker cost (train → transform → DP) next to the cheap
	// per-request trees it enables.
	ctx, span := trace.Start(context.Background(), "market.add_model", "model", m.String())
	defer span.End()
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.lookup(m); dup {
		return fmt.Errorf("market: model %v already offered", m)
	}
	if b.seller.Research == nil {
		return errors.New("market: seller provided no market research")
	}
	eps := opts.Epsilon
	if eps == nil {
		var err error
		eps, err = defaultEpsilon(m)
		if err != nil {
			return err
		}
	}
	mc := opts.MCSamples
	if mc <= 0 {
		mc = 200
	}

	_, trainSpan := trace.Start(ctx, "ml.train", "model", m.String())
	optimal, err := ml.Train(m, b.seller.Data.Train, opts.Train)
	trainSpan.End()
	if err != nil {
		return fmt.Errorf("market: training optimal instance: %w", err)
	}

	evalOn := b.seller.Data.Test
	if opts.OnTrain {
		evalOn = b.seller.Data.Train
	}
	deltas := make([]float64, len(b.seller.Research.A))
	for i, x := range b.seller.Research.A {
		deltas[len(deltas)-1-i] = 1 / x
	}
	sort.Float64s(deltas)
	var tr *pricing.Transform
	_, isSquare := eps.(loss.Square)
	_, isGaussian := b.mech.(noise.Gaussian)
	_, xformSpan := trace.Start(ctx, "pricing.build_transform", "epsilon", eps.Name())
	if isSquare && isGaussian && m == ml.LinearRegression && !opts.ForceEmpirical {
		// Exact affine transform — no Monte-Carlo needed (Lemma 3's
		// trace identity; see pricing.AnalyticSquareTransform).
		xformSpan.SetAttr("kind", "analytic")
		tr, err = pricing.AnalyticSquareTransform(optimal, evalOn, deltas)
	} else {
		xformSpan.SetAttr("kind", "empirical")
		tr, err = pricing.NewEmpirical(b.mech, optimal, eps, evalOn, deltas, mc, b.r.Split())
	}
	xformSpan.End()
	if err != nil {
		return fmt.Errorf("market: building error transform: %w", err)
	}

	extras := make(map[string]*pricing.Transform, len(opts.ExtraEpsilons))
	for _, extra := range opts.ExtraEpsilons {
		if extra == nil {
			return errors.New("market: nil extra error function")
		}
		name := extra.Name()
		if name == eps.Name() {
			continue // already the default
		}
		if _, dup := extras[name]; dup {
			return fmt.Errorf("market: duplicate extra error function %q", name)
		}
		etr, err := pricing.NewEmpirical(b.mech, optimal, extra, evalOn, deltas, mc, b.r.Split())
		if err != nil {
			return fmt.Errorf("market: building transform for ϵ=%q: %w", name, err)
		}
		extras[name] = etr
	}

	curve, err := optimizeCurve(ctx, b.seller.Research)
	if err != nil {
		return err
	}
	b.publishLocked(m, &offer{optimal: optimal, transform: tr, curve: curve, epsilon: eps, evalOn: evalOn, extras: extras})
	return nil
}

// optimizeCurve runs the revenue DP over a market instance and returns
// the certified arbitrage-free price curve through its solution.
func optimizeCurve(ctx context.Context, research *curves.Market) (*pricing.Curve, error) {
	ctx, span := trace.Start(ctx, "market.optimize_curve")
	defer span.End()
	defer metCurveOpt.ObserveDuration(time.Now())
	res, err := revopt.MaximizeRevenueDPContext(ctx, research)
	if err != nil {
		return nil, fmt.Errorf("market: revenue optimization: %w", err)
	}
	pts := make([]pricing.Point, len(res.Z))
	for i := range res.Z {
		pts[i] = pricing.Point{X: research.A[i], Price: res.Z[i]}
	}
	curve, err := pricing.NewCurve(pts)
	if err != nil {
		return nil, fmt.Errorf("market: building price curve: %w", err)
	}
	if err := curve.Certify(); err != nil {
		return nil, fmt.Errorf("market: optimized curve failed certification: %w", err)
	}
	return curve, nil
}

// AddModelFromErrorResearch implements the complete Figure 2 pipeline:
// the seller's value/demand research arrives in the ERROR domain
// (Figure 2a); the broker trains the optimum, tabulates the error
// transform ϕ on its own deltaGrid, converts the research into the
// inverse-NCP domain (Figure 2b), and publishes the revenue-optimized
// arbitrage-free curve over the transformed grid (Figure 2c).
//
// Unlike AddModel, this path does not use the seller's pre-transformed
// Research field, so buyer populations sampled from that field do not
// describe such offers.
func (b *Broker) AddModelFromErrorResearch(m ml.Model, opts AddModelOptions, research []pricing.ErrorResearchPoint, deltaGrid []float64) error {
	ctx, span := trace.Start(context.Background(), "market.add_model", "model", m.String(), "research", "error-domain")
	defer span.End()
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.lookup(m); dup {
		return fmt.Errorf("market: model %v already offered", m)
	}
	if len(research) == 0 {
		return errors.New("market: empty error-domain research")
	}
	if len(deltaGrid) < 2 {
		return errors.New("market: need at least two δ grid points")
	}
	eps := opts.Epsilon
	if eps == nil {
		var err error
		eps, err = defaultEpsilon(m)
		if err != nil {
			return err
		}
	}
	mc := opts.MCSamples
	if mc <= 0 {
		mc = 200
	}

	_, trainSpan := trace.Start(ctx, "ml.train", "model", m.String())
	optimal, err := ml.Train(m, b.seller.Data.Train, opts.Train)
	trainSpan.End()
	if err != nil {
		return fmt.Errorf("market: training optimal instance: %w", err)
	}
	evalOn := b.seller.Data.Test
	if opts.OnTrain {
		evalOn = b.seller.Data.Train
	}

	deltas := append([]float64(nil), deltaGrid...)
	sort.Float64s(deltas)
	var tr *pricing.Transform
	_, isSquare := eps.(loss.Square)
	_, isGaussian := b.mech.(noise.Gaussian)
	_, xformSpan := trace.Start(ctx, "pricing.build_transform", "epsilon", eps.Name())
	if isSquare && isGaussian && m == ml.LinearRegression && !opts.ForceEmpirical {
		tr, err = pricing.AnalyticSquareTransform(optimal, evalOn, deltas)
	} else {
		tr, err = pricing.NewEmpirical(b.mech, optimal, eps, evalOn, deltas, mc, b.r.Split())
	}
	xformSpan.End()
	if err != nil {
		return fmt.Errorf("market: building error transform: %w", err)
	}

	market, err := pricing.MarketFromErrorResearch(research, tr)
	if err != nil {
		return fmt.Errorf("market: transforming research (Fig. 2a→2b): %w", err)
	}
	curve, err := optimizeCurve(ctx, market)
	if err != nil {
		return err
	}
	b.publishLocked(m, &offer{optimal: optimal, transform: tr, curve: curve, epsilon: eps, evalOn: evalOn})
	return nil
}

// defaultEpsilon returns the Table 2 buyer-facing error function for a
// model.
func defaultEpsilon(m ml.Model) (loss.Loss, error) {
	switch m {
	case ml.LinearRegression:
		return loss.Square{}, nil
	case ml.LogisticRegression:
		return loss.Logistic{}, nil
	case ml.LinearSVM:
		return loss.SmoothedHinge{}, nil
	default:
		return nil, fmt.Errorf("market: unknown model %v", m)
	}
}

// ErrUnknownEpsilon is returned when a buyer names an error function
// the broker does not support for the model.
var ErrUnknownEpsilon = errors.New("market: unsupported error function")

// Epsilons lists the error functions supported for model m, default
// first. Lock-free: it reads the current offer snapshot.
func (b *Broker) Epsilons(m ml.Model) ([]string, error) {
	off, ok := b.lookup(m)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	out := []string{off.epsilon.Name()}
	names := make([]string, 0, len(off.extras))
	for n := range off.extras {
		names = append(names, n)
	}
	sort.Strings(names)
	return append(out, names...), nil
}

// PriceErrorCurveFor returns the buyer-facing menu measured under the
// named error function (empty = the offer's default). Lock-free: the
// menu comes off the immutable offer snapshot.
func (b *Broker) PriceErrorCurveFor(m ml.Model, epsName string) ([]pricing.PriceError, error) {
	off, ok := b.lookup(m)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	tr, err := off.transformFor(epsName)
	if err != nil {
		return nil, err
	}
	return pricing.PriceErrorCurve(off.curve, tr), nil
}

// BuyWithErrorBudgetForContext executes option 2: the cheapest version
// whose expected error is at most maxErr, measured on the named error
// function's scale (empty epsName selects the offer's default ϵ). The
// sale is traced on the caller's context.
func (b *Broker) BuyWithErrorBudgetForContext(ctx context.Context, m ml.Model, epsName string, maxErr float64) (*Purchase, error) {
	ctx, span := trace.Start(ctx, "market.buy", "option", "error_budget", "model", m.String())
	defer span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	off, ok := b.lookup(m)
	if !ok {
		metRejected.Inc()
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	tr, err := off.transformFor(epsName)
	if err != nil {
		metRejected.Inc()
		return nil, err
	}
	delta, err := tr.DeltaForError(maxErr)
	if err != nil {
		metRejected.Inc()
		return nil, fmt.Errorf("%w (requested %v under ϵ=%q)", ErrErrorBudgetTooTight, maxErr, epsName)
	}
	// Clamp to the offered range of the default grid (identical grids
	// by construction, but guard against numerical drift).
	lo, hi := off.deltaBounds()
	delta = math.Min(math.Max(delta, lo), hi)
	return b.sell(ctx, m, off, delta)
}

// Models lists the offered models (the menu M). Lock-free.
func (b *Broker) Models() []ml.Model {
	offers := b.table()
	out := make([]ml.Model, 0, len(offers))
	for m := range offers {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ErrUnknownModel is returned for models not on the menu.
var ErrUnknownModel = errors.New("market: model not offered")

// PriceErrorCurve returns the buyer-facing menu of (δ, expected error,
// price) rows for model m (Figure 1C, step 2). Lock-free.
func (b *Broker) PriceErrorCurve(m ml.Model) ([]pricing.PriceError, error) {
	off, ok := b.lookup(m)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	return pricing.PriceErrorCurve(off.curve, off.transform), nil
}

// deltaBounds returns the offered NCP range [min, max] of the transform
// grid.
func (o *offer) deltaBounds() (float64, float64) {
	ds, _ := o.transform.Grid()
	return ds[0], ds[len(ds)-1]
}

// BuyAtPointContext executes option 1: the buyer picks an NCP δ
// directly. The sale is traced on the caller's context: its price
// lookup, noise injection, and ledger append each become child spans of
// the request that triggered them.
func (b *Broker) BuyAtPointContext(ctx context.Context, m ml.Model, delta float64) (*Purchase, error) {
	ctx, span := trace.Start(ctx, "market.buy", "option", "point", "model", m.String())
	defer span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	off, ok := b.lookup(m)
	if !ok {
		metRejected.Inc()
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	lo, hi := off.deltaBounds()
	if delta < lo || delta > hi || math.IsNaN(delta) {
		metRejected.Inc()
		return nil, fmt.Errorf("market: δ=%v outside offered range [%v, %v]", delta, lo, hi)
	}
	return b.sell(ctx, m, off, delta)
}

// ErrBudgetTooSmall is returned when no offered version fits the budget.
var ErrBudgetTooSmall = errors.New("market: budget below the cheapest offered version")

// ErrErrorBudgetTooTight is returned when even the noiseless-est
// offered version cannot meet the requested error.
var ErrErrorBudgetTooTight = errors.New("market: error budget below the most accurate offered version")

// BuyWithPriceBudgetContext executes option 3: the most accurate
// version whose price is within budget. The sale is traced on the
// caller's context.
func (b *Broker) BuyWithPriceBudgetContext(ctx context.Context, m ml.Model, budget float64) (*Purchase, error) {
	ctx, span := trace.Start(ctx, "market.buy", "option", "price_budget", "model", m.String())
	defer span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	off, ok := b.lookup(m)
	if !ok {
		metRejected.Inc()
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	lo, hi := off.deltaBounds()
	if budget < off.curve.Price(1/hi) {
		metRejected.Inc()
		return nil, fmt.Errorf("%w: %v < %v", ErrBudgetTooSmall, budget, off.curve.Price(1/hi))
	}
	// The price is non-increasing in δ; binary-search the smallest δ
	// (most accurate version) still within budget.
	_, search := trace.Start(ctx, "pricing.budget_search", "budget", strconv.FormatFloat(budget, 'g', -1, 64))
	loD, hiD := lo, hi
	for i := 0; i < 200 && hiD-loD > 1e-12*(1+hiD); i++ {
		mid := (loD + hiD) / 2
		if off.curve.Price(1/mid) <= budget {
			hiD = mid
		} else {
			loD = mid
		}
	}
	search.End()
	return b.sell(ctx, m, off, hiD)
}

// BuyIdempotent executes buy at most once per idempotency key: the
// first caller of a key runs it, concurrent callers with the same key
// coalesce onto that one execution, and later callers within
// ReplayTTL get the original Purchase back — same Seq, same noisy
// weights, same single ledger row — instead of being charged again.
// replayed reports whether the result came from the cache rather than
// a fresh sale. An empty key opts out: buy runs unconditionally.
//
// Only successful purchases are replayable; a failed or canceled buy
// is forgotten so the client's next retry executes fresh. The buy
// closure runs on the first caller's ctx — if that caller's deadline
// expires mid-sale, coalesced waiters observe the same error.
func (b *Broker) BuyIdempotent(ctx context.Context, key string, buy func(context.Context) (*Purchase, error)) (p *Purchase, replayed bool, err error) {
	if key == "" {
		p, err = buy(ctx)
		if err == nil {
			err = b.waitAck(ctx)
		}
		if err != nil {
			return nil, false, err
		}
		return p, false, nil
	}
	// The owning flight carries the key in its context so a durable
	// ledger can journal the idempotency entry with the transaction.
	keyed := withIdempotencyKey(ctx, key)
	p, replayed, err = b.replay.Do(ctx, key, func() (*Purchase, error) { return buy(keyed) })
	if err == nil {
		// The acknowledgement barrier runs outside the replay flight so
		// a quorum timeout does not evict the cached success: the sale
		// is journaled and shipping, and a retry under the same key
		// replays the original Seq (and re-waits for the quorum) rather
		// than charging twice. Replayed successes wait too — under a
		// partition, quorum mode stalls acknowledgements, it never
		// invents them.
		if aerr := b.waitAck(ctx); aerr != nil {
			return nil, replayed, aerr
		}
	}
	if replayed && err == nil {
		metReplayed.Inc()
		if span := trace.FromContext(ctx); span != nil {
			span.SetAttr("idempotency.replayed", "true")
		}
	}
	return p, replayed, err
}

// QuoteContext previews the price and expected error of the version at
// NCP δ without executing a sale (no noise drawn, no ledger entry),
// traced on the caller's context. Lock-free: the quote is evaluated on
// the immutable offer snapshot, so quotes keep flowing while a slow
// AddModel holds Broker.mu.
func (b *Broker) QuoteContext(ctx context.Context, m ml.Model, delta float64) (price, expectedError float64, err error) {
	ctx, span := trace.Start(ctx, "market.quote", "model", m.String())
	defer span.End()
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	off, ok := b.lookup(m)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	lo, hi := off.deltaBounds()
	if delta < lo || delta > hi || math.IsNaN(delta) {
		return 0, 0, fmt.Errorf("market: δ=%v outside offered range [%v, %v]", delta, lo, hi)
	}
	metQuotes.Inc()
	// End the span explicitly around the evaluation (a deferred End
	// would run after the return expression and time nothing).
	_, eval := trace.Start(ctx, "pricing.curve_eval", "delta", strconv.FormatFloat(delta, 'g', -1, 64))
	price = off.curve.Price(1 / delta)
	expectedError = off.transform.ErrorForDelta(delta)
	eval.End()
	return price, expectedError, nil
}

// sell performs the sale without taking Broker.mu. The three steps of
// Figure 1C's delivery — price-function evaluation, noise injection,
// ledger append — each record a child span on the caller's trace.
// Price and expected error come off the immutable offer snapshot; the
// noise draw runs on the sale's own seed-derived RNG stream, whose
// stream id is the ledger sequence number (replaying stream s
// reproduces sale s exactly, regardless of which goroutine executed
// it); and the ledger append locks only one shard.
//
// The sale is all-or-nothing against ctx: a cancellation or deadline
// that lands before the ledger append aborts the sale with ctx's
// error, no transaction is recorded, no revenue accrues, and the
// allocated sequence number is handed back if no later sale claimed
// one — the buyer is never charged for a model they did not receive.
func (b *Broker) sell(ctx context.Context, m ml.Model, off *offer, delta float64) (*Purchase, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.follower.Load() {
		metRejected.Inc()
		return nil, ErrFollower
	}
	_, eval := trace.Start(ctx, "pricing.curve_eval", "delta", strconv.FormatFloat(delta, 'g', -1, 64))
	price := off.curve.Price(1 / delta)
	expErr := off.transform.ErrorForDelta(delta)
	eval.End()
	seq := b.ledger.nextSeq()
	instance, err := noise.PerturbContext(ctx, b.mech, off.optimal, delta, rng.Stream(b.saleSeed, seq))
	if err != nil {
		b.releaseSeq(seq)
		metCanceled.Inc()
		return nil, err
	}
	// Attribute the price across the stake table in force right now:
	// the broker's commission plus one exact quantized slice per seller
	// (Σ shares + brokerShare == price bit-for-bit; see splitPrice).
	// The table is part of the transaction, so it journals in the same
	// WAL frame as the sale.
	brokerShare, shares := splitPrice(price, b.commission, b.loadStakes())
	p := &Purchase{
		Instance:      instance,
		Model:         m,
		Delta:         delta,
		ExpectedError: expErr,
		Price:         price,
		Seq:           int(seq),
		Shares:        shares,
		BrokerShare:   brokerShare,
	}
	tx := Transaction{
		Seq:           int(seq),
		Model:         m,
		Delta:         delta,
		Price:         price,
		ExpectedError: p.ExpectedError,
		Stamp:         Stamp{Logical: b.logical.Add(1), Wall: b.clock()},
		Shares:        shares,
		BrokerShare:   brokerShare,
	}
	// The idempotency entry rides in the same journal frame as its
	// transaction: a crash persists both or neither.
	var rep *pendingReplay
	if key := idempotencyKeyFrom(ctx); key != "" {
		rep = &pendingReplay{key: key, p: p}
	}
	lctx, ledger := trace.Start(ctx, "market.ledger_append", "seq", strconv.FormatUint(seq, 10))
	if b.journal != nil {
		err = b.journal.record(lctx, tx, rep)
	} else {
		b.ledger.file(tx)
	}
	ledger.End()
	if err != nil {
		// The journal refused the sale; the buyer must not receive the
		// model or be charged. Hand the sequence number back when
		// possible (the journal records the skip otherwise — likely
		// futile once the store failed, and harmless).
		b.releaseSeq(seq)
		metPersistFailed.Inc()
		return nil, err
	}
	metPurchases.Inc()
	metRevenue.Add(price)
	for i := range shares {
		metSellerRevenue(shares[i].SellerID).Add(shares[i].Amount)
	}
	return p, nil
}

// releaseSeq hands back the sequence number of an abandoned sale. With a
// journal, a number that cannot be reclaimed is journaled as a skip, so
// recovery can tell a canceled sale from a lost row.
func (b *Broker) releaseSeq(seq uint64) {
	if b.journal != nil {
		b.journal.releaseSeq(seq)
		return
	}
	b.ledger.releaseSeq(seq)
}

// SetClock overrides the wall-clock source behind Transaction stamps;
// tests use it for deterministic stamps. Not safe to call concurrently
// with buys.
func (b *Broker) SetClock(now func() time.Time) { b.clock = now }

// ErrSaleNotRecorded is returned (wrapped) when the durable journal
// refuses to record a sale: the buyer was not charged and received
// nothing. httpapi maps it to 503 — the client may retry, ideally with
// the same Idempotency-Key.
var ErrSaleNotRecorded = errors.New("market: sale not recorded durably")

// idemKeyCtx carries the Idempotency-Key of the buy being executed so
// the ledger can journal the idempotency entry atomically with the
// transaction.
type idemKeyCtx struct{}

func withIdempotencyKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, idemKeyCtx{}, key)
}

func idempotencyKeyFrom(ctx context.Context) string {
	key, _ := ctx.Value(idemKeyCtx{}).(string)
	return key
}

// Ledger returns a copy of all recorded transactions in Seq order.
// Repeated calls between sales are cheap: the Seq-ordered merge of the
// ledger stripes is cached and reused until a new row is recorded
// (only the defensive copy is paid per call).
func (b *Broker) Ledger() []Transaction {
	v := b.ledger.view()
	return append([]Transaction(nil), v.txs...)
}

// RevenueSplit is the single-seller compatibility view of the per-sale
// attribution table: sellerShare is the cumulative revenue attributed
// to all sellers combined and brokerShare the cumulative commission,
// both read from the running stripe totals the sale path accumulates —
// O(sellers) per stripe, no snapshot build — so /metrics and listing
// polls stay cheap under live traffic. Legacy rows journaled before
// attribution (no table) are folded in at the commission rate. For the
// per-seller breakdown use RevenueSplits; the background auditor
// cross-checks both against the rows continuously.
func (b *Broker) RevenueSplit() (sellerShare, brokerShare float64) {
	bySeller, broker, legacy := b.ledger.splitTotals()
	// Sum in sorted seller order: map iteration order must not leak
	// into the reported figure (the workload rig compares economic
	// totals bit-for-bit across runs).
	ids := make([]string, 0, len(bySeller))
	for id := range bySeller {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sellerShare += bySeller[id]
	}
	return sellerShare + legacy*(1-b.commission), broker + legacy*b.commission
}

// LedgerTotals reports the ledger's row count, the gross re-summed
// from the stored rows themselves, and the independently accumulated
// per-stripe gross — scanned in place, no snapshot build, so it is
// safe to poll on a tight cadence. The background auditor
// (internal/market/audit) cross-checks the two aggregates and the
// RevenueSplit sum against each other every sweep.
func (b *Broker) LedgerTotals() (rows int, gross, stripeGross float64) {
	return b.ledger.totals()
}

// Optimal exposes the trained optimum for experiment harnesses; the
// production market never hands it to buyers.
func (b *Broker) Optimal(m ml.Model) (*ml.Instance, error) {
	off, ok := b.lookup(m)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	return off.optimal.Clone(), nil
}

// Curve exposes the published pricing curve for model m.
func (b *Broker) Curve(m ml.Model) (*pricing.Curve, error) {
	off, ok := b.lookup(m)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	return off.curve, nil
}

// ErrCurveRejected wraps every reason RepublishCurve refuses a
// candidate: the old menu stays published and quotes were never
// affected.
var ErrCurveRejected = errors.New("market: candidate curve rejected")

// RepublishCurve atomically replaces model m's published price curve
// with c — the online-repricing publish step. The candidate must pass
// the full arbitrage-freeness certification (monotone, subadditive,
// non-negative) and must be defined on exactly the grid the current
// curve prices, so the published menu rows keep their δ axis. On any
// rejection the previous menu remains published untouched; on success
// the swap is copy-on-write under b.mu, so concurrent Quote/Buy
// readers never block and never observe a torn offer: they serve
// either the old certified curve or the new one.
func (b *Broker) RepublishCurve(m ml.Model, c *pricing.Curve) error {
	return b.republishCurve(m, c, true)
}

// republishCurve is RepublishCurve's core. journal controls whether the
// accepted curve is journaled to a durable ledger for replication and
// recovery: live repricing journals, while the recovery and follower
// apply paths (whose input IS the journal) must not re-journal.
func (b *Broker) republishCurve(m ml.Model, c *pricing.Curve, journal bool) error {
	if c == nil {
		return fmt.Errorf("%w: nil curve", ErrCurveRejected)
	}
	if err := c.Certify(); err != nil {
		return fmt.Errorf("%w: certification failed: %v", ErrCurveRejected, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	off, ok := b.lookup(m)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	oldPts, newPts := off.curve.Points(), c.Points()
	if len(oldPts) != len(newPts) {
		return fmt.Errorf("%w: candidate has %d grid points, published menu has %d",
			ErrCurveRejected, len(newPts), len(oldPts))
	}
	for i := range oldPts {
		if math.Abs(newPts[i].X-oldPts[i].X) > 1e-12*(1+oldPts[i].X) {
			return fmt.Errorf("%w: grid point %d moved from x=%v to x=%v",
				ErrCurveRejected, i, oldPts[i].X, newPts[i].X)
		}
	}
	next := *off
	next.curve = c
	b.publishLocked(m, &next)
	if journal && b.journal != nil {
		// Best effort: a journal failure latches the store failed and
		// every subsequent sale refuses to record, which /healthz
		// surfaces far more loudly than a lost curve frame would.
		b.journal.journalCurve(m, c.Points())
	}
	return nil
}
