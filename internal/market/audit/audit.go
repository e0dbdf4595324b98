// Package audit continuously re-verifies the marketplace's core
// invariants on the live broker — the properties the paper certifies
// at publish time and the workload harness re-checks after a run, but
// which a long-lived service must watch in between:
//
//   - arbitrage: sampled quote pairs off the published menu must be
//     monotone non-decreasing and subadditive over x = 1/δ, and the
//     exact attack search (internal/arbitrage.FindAttack) must come up
//     empty at a random target each sweep.
//   - conservation: the RevenueSplit shares must sum to the ledger
//     gross, and the two independently maintained gross aggregates
//     (row re-sum vs. running stripe totals) must agree.
//   - wal: the durability engine must be keeping up — no persist
//     failures since the last sweep, fsync lag under its ceiling, and
//     windowed append p99 under its ceiling.
//
// A violation increments audit.violations_total{check=...}, logs a
// structured slog event carrying trace context, and flips the auditor
// degraded; /healthz surfaces it through Healthy until RecoverAfter
// consecutive clean sweeps pass.
package audit

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"github.com/datamarket/mbp/internal/arbitrage"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/obs/ts"
	"github.com/datamarket/mbp/internal/repricer"
	"github.com/datamarket/mbp/internal/rng"
)

// Check names, used as the {check=...} label on audit.violations_total
// and in degraded reasons.
const (
	CheckArbitrage    = "arbitrage"
	CheckConservation = "conservation"
	CheckWAL          = "wal"
	CheckReprice      = "reprice"
	CheckReplication  = "replication"
)

// Defaults.
const (
	DefaultInterval         = 2 * time.Second
	DefaultMaxFsyncLag      = 5 * time.Second
	DefaultAppendP99Ceiling = 0.25 // seconds
	DefaultRecoverAfter     = 2
	recentProbes            = 64 // ring served by /debug/health
	// quotePairs is the number of random quote pairs checked per model
	// per sweep, and maxK bounds the arbitrage attack search depth.
	quotePairs = 16
	maxK       = 3
)

// Config wires an Auditor to a broker.
type Config struct {
	// Broker is the marketplace under audit (required).
	Broker *market.Broker
	// Interval between sweeps (default 2s).
	Interval time.Duration
	// Seed drives the probe sampler; sweep n draws from
	// rng.Stream(Seed, n), so a run's probe sequence is reproducible.
	Seed uint64
	// Registry receives the audit metrics and is read for the WAL
	// counters (default obs.Default).
	Registry *obs.Registry
	// Logger receives violation events (default slog.Default()).
	Logger *slog.Logger
	// Tracer scopes each sweep in a span (default trace.Default).
	Tracer *trace.Tracer
	// FsyncLag, when set, reports the journal's current fsync lag
	// (DurableLedger.FsyncLag); nil skips the lag check.
	FsyncLag func() time.Duration
	// MaxFsyncLag is the lag ceiling (default 5s).
	MaxFsyncLag time.Duration
	// AppendP99Ceiling caps the windowed store.append_seconds p99, in
	// seconds (default 0.25).
	AppendP99Ceiling float64
	// RecoverAfter is how many consecutive clean sweeps clear the
	// degraded state (default 2).
	RecoverAfter int
	// Repricer, when set, is probed each sweep: the menu it last
	// published must be the menu the broker is actually serving
	// (publish atomicity), and with MaxEpochAge > 0 its epochs must
	// keep coming.
	Repricer *repricer.Repricer
	// MaxEpochAge is the staleness ceiling on the repricer's last
	// epoch; 0 disables the stall check (harness-driven epochs have no
	// wall-clock cadence).
	MaxEpochAge time.Duration
	// Replication, when set, samples the replication topology each
	// sweep — on a leader, replica.Node.AuditProbe compares every
	// reachable follower's stream digest at its exact frame cursor
	// against the leader's digest history. A false return raises
	// audit.violations_total{check="replication"}.
	Replication func() (detail string, ok bool)
}

// Probe is one recorded check outcome; /debug/health shows the last
// few.
type Probe struct {
	At     time.Time `json:"at"`
	Check  string    `json:"check"`
	OK     bool      `json:"ok"`
	Detail string    `json:"detail"`
}

// Summary is the auditor's cumulative state.
type Summary struct {
	Sweeps          uint64            `json:"sweeps"`
	Probes          uint64            `json:"probes"`
	Violations      map[string]uint64 `json:"violations"`
	ViolationsTotal uint64            `json:"violationsTotal"`
	LastViolation   string            `json:"lastViolation,omitempty"`
	LastViolationAt time.Time         `json:"lastViolationAt,omitempty"`
	Degraded        bool              `json:"degraded"`
}

// Auditor runs the sweeps.
type Auditor struct {
	cfg Config

	metSweeps  *obs.Counter
	metProbes  *obs.Counter
	metViol    map[string]*obs.Counter
	metDegrade *obs.Gauge

	mu           sync.Mutex
	sweeps       uint64
	probes       uint64
	violations   map[string]uint64
	lastViol     string
	lastViolAt   time.Time
	cleanStreak  int
	degraded     bool
	recent       []Probe // ring, newest at (head-1+len)%len
	recentHead   int
	recentCount  int
	lastPersists uint64        // market.sales_persist_failed_total at last sweep
	lastAppends  []uint64      // store.append_seconds bucket counts at last sweep
	lastScanAt   time.Time     // when the last conservation row scan ran
	lastScanCost time.Duration // how long it took

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds an Auditor. It panics on a nil broker — a wiring error.
func New(cfg Config) *Auditor {
	if cfg.Broker == nil {
		panic("audit: nil broker")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Default
	}
	if cfg.MaxFsyncLag <= 0 {
		cfg.MaxFsyncLag = DefaultMaxFsyncLag
	}
	if cfg.AppendP99Ceiling <= 0 {
		cfg.AppendP99Ceiling = DefaultAppendP99Ceiling
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = DefaultRecoverAfter
	}
	a := &Auditor{
		cfg:        cfg,
		metSweeps:  cfg.Registry.Counter("audit.sweeps_total"),
		metProbes:  cfg.Registry.Counter("audit.probes_total"),
		metDegrade: cfg.Registry.Gauge("audit.degraded"),
		metViol:    make(map[string]*obs.Counter, 3),
		violations: make(map[string]uint64, 3),
		recent:     make([]Probe, recentProbes),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, check := range []string{CheckArbitrage, CheckConservation, CheckWAL, CheckReprice, CheckReplication} {
		a.metViol[check] = cfg.Registry.Counter(obs.Name("audit.violations_total", "check", check))
	}
	return a
}

// Interval reports the sweep cadence.
func (a *Auditor) Interval() time.Duration { return a.cfg.Interval }

// Start launches the sweep loop.
func (a *Auditor) Start() {
	a.startOnce.Do(func() {
		go func() {
			defer close(a.done)
			tick := time.NewTicker(a.cfg.Interval)
			defer tick.Stop()
			for {
				select {
				case <-a.stop:
					return
				case now := <-tick.C:
					a.Sweep(now)
				}
			}
		}()
	})
}

// Stop halts the loop and waits for any in-flight sweep. Safe without
// Start and when called repeatedly.
func (a *Auditor) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.startOnce.Do(func() { close(a.done) })
	<-a.done
}

// log returns the configured logger, late-resolving slog.Default so
// cmd wiring (slog.SetDefault after flag parsing) is picked up.
func (a *Auditor) log() *slog.Logger {
	if a.cfg.Logger != nil {
		return a.cfg.Logger
	}
	return slog.Default()
}

// Sweep runs every check once at the given instant. Exported so
// mbpload can force a final sweep after a sub-second run and tests can
// drive the auditor deterministically.
func (a *Auditor) Sweep(now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sweepNo := a.sweeps
	a.sweeps++
	a.metSweeps.Inc()

	ctx, span := a.cfg.Tracer.Start(context.Background(), "audit.sweep",
		"sweep", fmt.Sprint(sweepNo))
	r := rng.Stream(a.cfg.Seed, sweepNo+1)

	clean := true
	record := func(check, detail string, ok bool) {
		a.probes++
		a.metProbes.Inc()
		a.recordProbeLocked(Probe{At: now, Check: check, OK: ok, Detail: detail})
		if !ok {
			clean = false
			a.violations[check]++
			a.metViol[check].Inc()
			a.lastViol = check + ": " + detail
			a.lastViolAt = now
			a.log().LogAttrs(ctx, slog.LevelError, "audit violation",
				slog.String("check", check),
				slog.String("detail", detail),
				slog.Uint64("sweep", sweepNo))
		}
	}

	a.sweepArbitrage(r, record)
	a.sweepConservation(now, record)
	a.sweepWAL(record)
	a.sweepReprice(now, record)
	a.sweepReplication(record)

	if clean {
		a.cleanStreak++
		if a.degraded && a.cleanStreak >= a.cfg.RecoverAfter {
			a.degraded = false
			a.log().LogAttrs(ctx, slog.LevelInfo, "audit recovered",
				slog.Int("cleanSweeps", a.cleanStreak))
		}
	} else {
		a.cleanStreak = 0
		a.degraded = true
	}
	if a.degraded {
		a.metDegrade.Set(1)
	} else {
		a.metDegrade.Set(0)
	}
	span.SetAttr("degraded", fmt.Sprint(a.degraded))
	span.End()
}

// tol is the relative floating-point slack on price and revenue
// comparisons.
func tol(scale float64) float64 { return 1e-9 * (1 + math.Abs(scale)) }

// sweepArbitrage re-verifies the published menus: random quote pairs
// for monotonicity and subadditivity, plus one exact attack search per
// model at a random target.
func (a *Auditor) sweepArbitrage(r *rng.RNG, record func(check, detail string, ok bool)) {
	b := a.cfg.Broker
	for _, m := range b.Models() {
		curve, err := b.Curve(m)
		if err != nil {
			record(CheckArbitrage, fmt.Sprintf("model %v: %v", m, err), false)
			continue
		}
		pts := curve.Points()
		if len(pts) == 0 {
			continue
		}
		maxX := pts[len(pts)-1].X
		ok, detail := true, fmt.Sprintf("model %v: %d quote pairs clean", m, quotePairs)
		for i := 0; i < quotePairs && ok; i++ {
			x1 := r.Uniform(0, maxX)
			x2 := r.Uniform(0, maxX)
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			p1, p2 := curve.Price(x1), curve.Price(x2)
			if p1 > p2+tol(p2) {
				ok = false
				detail = fmt.Sprintf("model %v: price not monotone: p(%.6g)=%.6g > p(%.6g)=%.6g",
					m, x1, p1, x2, p2)
				break
			}
			sum := curve.Price(x1 + x2)
			if sum > p1+p2+tol(sum) {
				ok = false
				detail = fmt.Sprintf("model %v: subadditivity broken: p(%.6g)=%.6g > p(%.6g)+p(%.6g)=%.6g",
					m, x1+x2, sum, x1, x2, p1+p2)
			}
		}
		record(CheckArbitrage, detail, ok)

		target := r.Uniform(0, 2*maxX)
		if target <= 0 {
			continue
		}
		if atk := arbitrage.FindAttack(curve, target, maxK); atk != nil {
			record(CheckArbitrage, fmt.Sprintf(
				"model %v: attack at x=%.6g: %d purchases for %.6g vs direct %.6g (saves %.6g)",
				m, atk.TargetX, len(atk.Purchases), atk.Cost, atk.TargetPrice, atk.Savings()), false)
		} else {
			record(CheckArbitrage, fmt.Sprintf("model %v: no attack at x=%.6g", m, target), true)
		}
	}
}

// sweepConservation cross-checks the revenue aggregates. LedgerTotals
// reads each stripe's row re-sum and its running total under the same
// lock, so that pair is comparable even while sales land mid-call and
// the stripe-vs-resum check is always exact. The RevenueSplit shares
// are read in a separate call, so their check against the re-summed
// gross runs only when the row count held still across the reads.
//
// The row re-sum is O(rows); on a big ledger it could crowd out the
// serving path if it ran every sweep at a tight interval. A duty-cycle
// guard keeps the scan at ≲1% of wall time: after a scan costing c, the
// next one waits until 100·c has elapsed (by the sweep clock, so
// test-driven sweeps stay deterministic), recording an OK deferral in
// between. The guard self-tunes — trivial ledgers scan every sweep,
// and a million-row ledger backs off exactly as far as it must.
func (a *Auditor) sweepConservation(now time.Time, record func(check, detail string, ok bool)) {
	if a.lastScanCost > 0 && now.Sub(a.lastScanAt) < 100*a.lastScanCost {
		record(CheckConservation, fmt.Sprintf(
			"row scan deferred (last cost %v; ≤1%% duty cycle)", a.lastScanCost), true)
		return
	}
	b := a.cfg.Broker
	start := time.Now()
	defer func() {
		a.lastScanCost = time.Since(start)
		a.lastScanAt = now
	}()
	rows1, gross, stripe := b.LedgerTotals()

	if d := math.Abs(stripe - gross); d > tol(gross) {
		record(CheckConservation, fmt.Sprintf(
			"stripe gross %.9g disagrees with row re-sum %.9g by %.3g over %d rows",
			stripe, gross, d, rows1), false)
		return
	}

	seller, broker := b.RevenueSplit()
	rows2, gross2, _ := b.LedgerTotals()
	if rows1 != rows2 {
		record(CheckConservation, fmt.Sprintf(
			"stripes conserve over %d rows; ledger advancing (%d→%d), split check deferred",
			rows1, rows1, rows2), true)
		return
	}
	if d := math.Abs(seller + broker - gross2); d > tol(gross2) {
		record(CheckConservation, fmt.Sprintf(
			"revenue split %.9g+%.9g misses ledger gross %.9g by %.3g over %d rows",
			seller, broker, gross2, d, rows2), false)
		return
	}
	record(CheckConservation, fmt.Sprintf(
		"split %.9g+%.9g = gross %.9g over %d rows", seller, broker, gross2, rows2), true)

	// Per-seller attribution: every row's table must reconstruct its
	// price exactly (zero tolerance — the quantized split guarantees it),
	// each stripe's running totals must match an append-order re-sum
	// bitwise, and the per-seller totals plus the broker's commission and
	// legacy gross must re-assemble the ledger gross.
	rep := b.AttributionTotals()
	if rep.ExactViolations > 0 {
		record(CheckConservation, fmt.Sprintf(
			"%d of %d rows break exact attribution conservation (Σ shares + broker ≠ price)",
			rep.ExactViolations, rep.Rows), false)
		return
	}
	if rep.ResumMismatches > 0 {
		record(CheckConservation, fmt.Sprintf(
			"%d stripe attribution totals disagree with their append-order re-sum",
			rep.ResumMismatches), false)
		return
	}
	var attributed float64
	for _, amt := range rep.Sellers {
		attributed += amt
	}
	if d := math.Abs(attributed + rep.Broker + rep.Legacy - rep.Gross); d > tol(rep.Gross) {
		record(CheckConservation, fmt.Sprintf(
			"per-seller attribution %.9g+broker %.9g+legacy %.9g misses gross %.9g by %.3g",
			attributed, rep.Broker, rep.Legacy, rep.Gross, d), false)
		return
	}
	record(CheckConservation, fmt.Sprintf(
		"attribution exact over %d rows (%d attributed, %d sellers)",
		rep.Rows, rep.AttributedRows, len(rep.Sellers)), true)
}

// sweepWAL watches the durability engine through its metrics: persist
// failures since the last sweep, current fsync lag, and the windowed
// append-latency p99.
func (a *Auditor) sweepWAL(record func(check, detail string, ok bool)) {
	persists := a.cfg.Registry.Counter("market.sales_persist_failed_total").Value()
	if delta := persists - a.lastPersists; a.sweeps > 1 && delta > 0 {
		record(CheckWAL, fmt.Sprintf("%d sale(s) failed to persist since last sweep", delta), false)
	} else {
		record(CheckWAL, "no persist failures", true)
	}
	a.lastPersists = persists

	if a.cfg.FsyncLag != nil {
		if lag := a.cfg.FsyncLag(); lag > a.cfg.MaxFsyncLag {
			record(CheckWAL, fmt.Sprintf("fsync lag %v exceeds ceiling %v", lag, a.cfg.MaxFsyncLag), false)
		} else {
			record(CheckWAL, fmt.Sprintf("fsync lag %v", lag), true)
		}
	}

	h, ok := a.cfg.Registry.Histograms()["store.append_seconds"]
	if !ok {
		return
	}
	counts := h.Counts()
	last := a.lastAppends
	a.lastAppends = counts
	if last == nil || len(last) != len(counts) {
		return
	}
	delta := make([]uint64, len(counts))
	var n uint64
	for i := range counts {
		if counts[i] >= last[i] {
			delta[i] = counts[i] - last[i]
			n += delta[i]
		}
	}
	if n == 0 {
		return
	}
	p99 := ts.QuantileFromCounts(h.Bounds(), delta, n, 0.99)
	if p99 > a.cfg.AppendP99Ceiling {
		record(CheckWAL, fmt.Sprintf(
			"append p99 %.3fs over %d appends exceeds ceiling %.3fs", p99, n, a.cfg.AppendP99Ceiling), false)
	} else {
		record(CheckWAL, fmt.Sprintf("append p99 %.4fs over %d appends", p99, n), true)
	}
}

// sweepReprice cross-checks the repricer against the live menu: the
// points it last published must be exactly what the broker serves. A
// mismatch means a candidate escaped the certify-then-publish gate or
// the copy-on-write swap tore — the two failure modes the repricer
// property tests pin down, watched here in production. The epoch
// counter is re-read after the comparison: if an epoch landed
// mid-probe the mismatch is a benign race, not a violation.
func (a *Auditor) sweepReprice(now time.Time, record func(check, detail string, ok bool)) {
	rp := a.cfg.Repricer
	if rp == nil {
		return
	}
	if at, ok := rp.LastEpochAt(); ok && a.cfg.MaxEpochAge > 0 {
		if age := now.Sub(at); age > a.cfg.MaxEpochAge {
			record(CheckReprice, fmt.Sprintf(
				"repricer stalled: last epoch %v ago exceeds ceiling %v", age, a.cfg.MaxEpochAge), false)
		}
	}
	pts, epoch1, ok := rp.LastPublished()
	if !ok {
		record(CheckReprice, "no repriced menu published yet", true)
		return
	}
	curve, err := a.cfg.Broker.Curve(rp.Model())
	if err != nil {
		record(CheckReprice, fmt.Sprintf("model %v: %v", rp.Model(), err), false)
		return
	}
	live := curve.Points()
	_, epoch2, _ := rp.LastPublished()
	if epoch1 != epoch2 {
		record(CheckReprice, "repricer advanced mid-probe, comparison deferred", true)
		return
	}
	if len(live) != len(pts) {
		record(CheckReprice, fmt.Sprintf(
			"live menu has %d points, repricer published %d (epoch %d)", len(live), len(pts), epoch1), false)
		return
	}
	for i := range pts {
		if live[i].X != pts[i].X || live[i].Price != pts[i].Price {
			record(CheckReprice, fmt.Sprintf(
				"live menu diverges from published epoch %d at point %d: (%.9g, %.9g) vs (%.9g, %.9g)",
				epoch1, i, live[i].X, live[i].Price, pts[i].X, pts[i].Price), false)
			return
		}
	}
	record(CheckReprice, fmt.Sprintf(
		"live menu matches repricer epoch %d (%d points)", epoch1, len(pts)), true)
}

// sweepReplication delegates to the configured topology probe (the
// replication layer owns the wire protocol; the auditor owns the
// cadence, the violation counter, and the degraded latch).
func (a *Auditor) sweepReplication(record func(check, detail string, ok bool)) {
	if a.cfg.Replication == nil {
		return
	}
	detail, ok := a.cfg.Replication()
	record(CheckReplication, detail, ok)
}

// recordProbeLocked files one probe into the recent ring.
func (a *Auditor) recordProbeLocked(p Probe) {
	a.recent[a.recentHead] = p
	a.recentHead = (a.recentHead + 1) % len(a.recent)
	if a.recentCount < len(a.recent) {
		a.recentCount++
	}
}

// Recent returns the last n probe outcomes, newest first.
func (a *Auditor) Recent(n int) []Probe {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n <= 0 || n > a.recentCount {
		n = a.recentCount
	}
	out := make([]Probe, 0, n)
	for i := 1; i <= n; i++ {
		idx := a.recentHead - i
		if idx < 0 {
			idx += len(a.recent)
		}
		out = append(out, a.recent[idx])
	}
	return out
}

// Summary returns the cumulative audit state.
func (a *Auditor) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Summary{
		Sweeps:          a.sweeps,
		Probes:          a.probes,
		Violations:      make(map[string]uint64, len(a.violations)),
		LastViolation:   a.lastViol,
		LastViolationAt: a.lastViolAt,
		Degraded:        a.degraded,
	}
	for check, n := range a.violations {
		s.Violations[check] = n
		s.ViolationsTotal += n
	}
	return s
}

// Healthy reports nil while the last sweeps were clean — the shape
// httpapi.WithHealthCheck wants. While degraded it names the most
// recent violation.
func (a *Auditor) Healthy() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.degraded {
		return nil
	}
	return fmt.Errorf("audit degraded since %s: %s",
		a.lastViolAt.Format(time.RFC3339), a.lastViol)
}
