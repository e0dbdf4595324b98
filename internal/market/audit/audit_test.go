package audit

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/ts"
	"github.com/datamarket/mbp/internal/store"
)

func newAuditor(t *testing.T, mutate func(*Config)) (*Auditor, *obs.Registry) {
	t.Helper()
	b := markettest.Broker(t, 42)
	if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.BuyWithPriceBudgetContext(context.Background(), markettest.Model, 50); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := Config{Broker: b, Registry: reg, Seed: 7, Interval: time.Hour}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), reg
}

func violations(reg *obs.Registry, check string) uint64 {
	return reg.Counter(obs.Name("audit.violations_total", "check", check)).Value()
}

func TestCleanBrokerPassesAllChecks(t *testing.T) {
	a, reg := newAuditor(t, nil)
	now := time.Unix(1000, 0)
	a.Sweep(now)
	a.Sweep(now.Add(time.Second))

	sum := a.Summary()
	if sum.Sweeps != 2 || sum.ViolationsTotal != 0 || sum.Degraded {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Probes == 0 {
		t.Fatal("no probes recorded")
	}
	if err := a.Healthy(); err != nil {
		t.Fatalf("healthy = %v", err)
	}
	for _, check := range []string{CheckArbitrage, CheckConservation, CheckWAL} {
		if n := violations(reg, check); n != 0 {
			t.Fatalf("%s violations = %d", check, n)
		}
	}
	if reg.Counter("audit.sweeps_total").Value() != 2 {
		t.Fatal("sweep counter not incremented")
	}
	if reg.Gauge("audit.degraded").Value() != 0 {
		t.Fatal("degraded gauge set on clean broker")
	}
	for _, p := range a.Recent(0) {
		if !p.OK {
			t.Fatalf("clean sweep recorded failing probe %+v", p)
		}
	}
}

func TestPersistFailureDegradesAndRecovers(t *testing.T) {
	a, reg := newAuditor(t, func(c *Config) { c.RecoverAfter = 2 })
	now := time.Unix(1000, 0)
	a.Sweep(now) // baseline

	// A sale fails to persist between sweeps: the counter delta trips
	// the WAL check and the auditor degrades.
	reg.Counter("market.sales_persist_failed_total").Inc()
	a.Sweep(now.Add(time.Second))
	if violations(reg, CheckWAL) != 1 {
		t.Fatalf("wal violations = %d", violations(reg, CheckWAL))
	}
	err := a.Healthy()
	if err == nil || !strings.Contains(err.Error(), "persist") {
		t.Fatalf("healthy after persist failure = %v", err)
	}
	if reg.Gauge("audit.degraded").Value() != 1 {
		t.Fatal("degraded gauge not set")
	}
	sum := a.Summary()
	if !sum.Degraded || sum.Violations[CheckWAL] != 1 || sum.LastViolation == "" {
		t.Fatalf("summary = %+v", sum)
	}

	// One clean sweep is not enough to clear; the second is.
	a.Sweep(now.Add(2 * time.Second))
	if a.Healthy() == nil {
		t.Fatal("recovered after a single clean sweep")
	}
	a.Sweep(now.Add(3 * time.Second))
	if err := a.Healthy(); err != nil {
		t.Fatalf("still degraded after %d clean sweeps: %v", 2, err)
	}
	if reg.Gauge("audit.degraded").Value() != 0 {
		t.Fatal("degraded gauge not cleared")
	}
}

func TestFsyncLagViolation(t *testing.T) {
	lag := time.Duration(0)
	a, reg := newAuditor(t, func(c *Config) {
		c.FsyncLag = func() time.Duration { return lag }
		c.MaxFsyncLag = time.Second
	})
	now := time.Unix(1000, 0)
	a.Sweep(now)
	if violations(reg, CheckWAL) != 0 {
		t.Fatal("zero lag flagged")
	}
	lag = 10 * time.Second
	a.Sweep(now.Add(time.Second))
	if violations(reg, CheckWAL) != 1 {
		t.Fatalf("wal violations = %d", violations(reg, CheckWAL))
	}
	if err := a.Healthy(); err == nil || !strings.Contains(err.Error(), "fsync lag") {
		t.Fatalf("healthy = %v", err)
	}
}

// TestFsyncNeverStoreKeepsWALHealthy: a journal at -fsync never
// promises no sync, so an auditor wired to its FsyncLag, as mbpmarket
// wires it by default, stays healthy however long ago its last append
// landed.
func TestFsyncNeverStoreKeepsWALHealthy(t *testing.T) {
	st, _, err := store.Open(t.TempDir(), store.Options{Policy: store.FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append([]byte("sale")); err != nil {
		t.Fatal(err)
	}
	a, reg := newAuditor(t, func(c *Config) {
		c.FsyncLag = st.FsyncLag
		c.MaxFsyncLag = 10 * time.Millisecond
	})
	time.Sleep(30 * time.Millisecond)
	a.Sweep(time.Now())
	if n := violations(reg, CheckWAL); n != 0 {
		t.Fatalf("wal violations = %d, want none", n)
	}
	if err := a.Healthy(); err != nil {
		t.Fatalf("healthy = %v", err)
	}
}

func TestAppendP99Violation(t *testing.T) {
	a, reg := newAuditor(t, func(c *Config) { c.AppendP99Ceiling = 0.1 })
	h := reg.Histogram("store.append_seconds", obs.LatencyBuckets())
	now := time.Unix(1000, 0)
	a.Sweep(now) // baseline bucket counts

	// Fast appends: under the ceiling.
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	a.Sweep(now.Add(time.Second))
	if violations(reg, CheckWAL) != 0 {
		t.Fatal("fast appends flagged")
	}

	// Slow appends this window: p99 blows the 100ms ceiling.
	for i := 0; i < 100; i++ {
		h.Observe(2)
	}
	a.Sweep(now.Add(2 * time.Second))
	if violations(reg, CheckWAL) != 1 {
		t.Fatalf("wal violations = %d", violations(reg, CheckWAL))
	}
	if err := a.Healthy(); err == nil || !strings.Contains(err.Error(), "append p99") {
		t.Fatalf("healthy = %v", err)
	}
}

// TestStoreAppendBucketsResolveAppends: the durable ledger's
// store.append_seconds buckets resolve one append — a window of 20µs
// or of 60µs appends reads a p50 within a doubling of the truth — and a
// 300ms append still trips the WAL check at the default ceiling.
func TestStoreAppendBucketsResolveAppends(t *testing.T) {
	live, ok := obs.Default.Histograms()["store.append_seconds"]
	if !ok {
		t.Fatal("store.append_seconds is not registered")
	}
	bounds := live.Bounds()
	for _, v := range []float64{20e-6, 60e-6} {
		h := obs.NewRegistry().Histogram("store.append_seconds", bounds)
		for i := 0; i < 100; i++ {
			h.Observe(v)
		}
		if p50 := ts.QuantileFromCounts(bounds, h.Counts(), h.Count(), 0.5); p50 < v/2 || p50 > 2*v {
			t.Fatalf("appends of %.0fµs read a p50 of %.1fµs", v*1e6, p50*1e6)
		}
	}

	a, reg := newAuditor(t, nil)
	h := reg.Histogram("store.append_seconds", bounds)
	now := time.Unix(1000, 0)
	a.Sweep(now) // baseline bucket counts
	h.Observe(0.3)
	a.Sweep(now.Add(time.Second))
	if violations(reg, CheckWAL) != 1 {
		t.Fatalf("a 300ms append: wal violations = %d, want 1", violations(reg, CheckWAL))
	}
}

func TestRecentRing(t *testing.T) {
	a, _ := newAuditor(t, nil)
	now := time.Unix(1000, 0)
	for i := 0; i < 30; i++ {
		a.Sweep(now.Add(time.Duration(i) * time.Second))
	}
	all := a.Recent(0)
	if len(all) != recentProbes {
		t.Fatalf("ring holds %d probes, want %d", len(all), recentProbes)
	}
	// Newest first: the first entries carry the latest sweep's stamp.
	if !all[0].At.After(all[len(all)-1].At) {
		t.Fatalf("ring not newest-first: %v ... %v", all[0].At, all[len(all)-1].At)
	}
	if got := a.Recent(5); len(got) != 5 || !got[0].At.Equal(all[0].At) {
		t.Fatalf("Recent(5) = %d entries", len(got))
	}
}

func TestStartStop(t *testing.T) {
	a, reg := newAuditor(t, func(c *Config) { c.Interval = 2 * time.Millisecond })
	a.Start()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("audit.sweeps_total").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("auditor never swept")
		}
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	a.Stop() // idempotent
	if a.Healthy() != nil {
		t.Fatalf("background sweeps found violations: %v", a.Healthy())
	}
}

func TestStopWithoutStart(t *testing.T) {
	a, _ := newAuditor(t, nil)
	done := make(chan struct{})
	go func() { a.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop without Start hung")
	}
}
