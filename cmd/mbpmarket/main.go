// Command mbpmarket serves a model-based-pricing broker over HTTP,
// demonstrating the paper's "real time interaction" claim: the optimal
// model is trained once at startup; each purchase only samples noise.
//
// Endpoints (see internal/httpapi):
//
//	GET  /menu                      — offered models
//	GET  /curve?model=<name>        — the price–error curve (Fig. 1C step 2)
//	POST /buy                       — body: {"model": "...", and one of
//	                                  "delta", "errorBudget", "priceBudget"}
//	GET  /ledger                    — all completed transactions
//	GET  /metrics                   — JSON metrics snapshot (disable: -metrics=false)
//	GET  /metrics/history           — time-series of scraped metrics (?name=&window=)
//	GET  /debug/traces              — recent purchase span trees (disable: -traces=false)
//	GET  /debug/health              — market-health dashboard: SLO burn rates + audit probes
//	GET  /debug/repricer            — repricer epoch ring with accepted/rejected verdicts (-reprice-interval)
//	GET  /healthz                   — liveness + uptime + degraded checks
//	GET  /debug/pprof/              — profiling endpoints (enable: -pprof)
//	GET  /replica/status            — replication role, epoch, frame cursor (-role/-replicas)
//	POST /replica/frames            — WAL frames from the leader (replication wire protocol)
//	POST /admin/promote             — manual failover: promote this node to leader
//
// Logs are JSON (log/slog); lines emitted while serving a request carry
// the request's trace_id and span_id, joining them to /debug/traces.
//
// Requests run under a server-side deadline (-request-timeout), an
// optional concurrency cap (-max-inflight, -queue-wait), and /buy is
// idempotent per Idempotency-Key header; -chaos injects faults for
// resilience drills. See docs/resilience.md.
//
// Market health: a self-scraper samples the metrics registry every
// -scrape-interval into a bounded ring (served at /metrics/history),
// SLO burn-rate alerts evaluate over it (-slo picks the objectives),
// and a background auditor (-audit-interval) re-verifies the pricing
// invariants — arbitrage-freeness of the published menu, revenue
// conservation in the ledger, WAL health — flipping /healthz degraded
// on violation. See docs/observability.md.
//
// With -store-dir the broker is durable: every sale is journaled to a
// write-ahead log before it is acknowledged (-fsync picks the
// durability barrier), offers are snapshotted so restarts skip
// retraining, and startup replays the journal — ledger, sequence
// numbers and idempotency keys all survive a crash. See
// docs/durability.md.
//
// With -replicas the leader ships that WAL to follower processes
// (started with -role follower), keeping warm standbys a manual
// POST /admin/promote turns into the leader; -ack quorum withholds
// /buy acknowledgements until a majority of the cluster durably holds
// the sale. See docs/replication.md and scripts/cluster_smoke.sh.
//
// Example:
//
//	mbpmarket -dataset CASP -addr 127.0.0.1:8080 &
//	curl 'localhost:8080/curve?model=linear-regression'
//	curl -d '{"model":"linear-regression","priceBudget":40}' localhost:8080/buy
//	curl localhost:8080/metrics       # purchase counters, request latencies
//	curl localhost:8080/debug/traces  # span trees for recent purchases
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/httpapi"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/audit"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/slo"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/obs/ts"
	"github.com/datamarket/mbp/internal/replica"
	"github.com/datamarket/mbp/internal/repricer"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/store"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		dsName  = flag.String("dataset", "CASP", "Table 3 dataset to sell")
		dsList  = flag.String("datasets", "", "comma-separated datasets: serve a multi-seller exchange under /listings and /l/{name}/...")
		scale   = flag.Float64("scale", 0.005, "dataset scale")
		seed    = flag.Uint64("seed", 1, "random seed")
		samples = flag.Int("samples", 200, "Monte-Carlo draws per grid point")
		save    = flag.String("save", "", "after training, dump the offers to this file")
		load    = flag.String("load", "", "warm-start: restore offers from a -save dump instead of retraining")
		metrics = flag.Bool("metrics", true, "instrument requests and serve GET /metrics")
		traces  = flag.Bool("traces", true, "record request span trees and serve GET /debug/traces; false records no spans at all")
		pprofOn = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")

		storeDir = flag.String("store-dir", "", "durable state directory: journal every sale to a WAL and recover ledger + offers on restart")
		fsyncPol = flag.String("fsync", "always", "WAL fsync policy: always | interval | never")

		scrapeEvery = flag.Duration("scrape-interval", ts.DefaultInterval, "metrics self-scrape cadence feeding /metrics/history; 0 disables")
		historyLen  = flag.Int("history", ts.DefaultCapacity, "samples retained per time series")
		sloSpec     = flag.String("slo", slo.DefaultSpec, "SLO objectives, e.g. buy-p99=250ms@0.05,error-rate=0.01; empty disables")
		auditEvery  = flag.Duration("audit-interval", audit.DefaultInterval, "market-invariant audit sweep cadence; 0 disables")

		repriceEvery  = flag.Duration("reprice-interval", 0, "online revenue re-optimization epoch cadence; 0 disables (see docs/repricing.md)")
		repriceWindow = flag.Int("reprice-window", repricer.DefaultWindow, "demand window in epochs the repricer fits over")
		explore       = flag.Float64("explore", repricer.DefaultExplore, "repricer per-arm exploration amplitude (and starved-arm decay = explore/2)")

		role        = flag.String("role", "leader", "replication role: leader | follower (see docs/replication.md)")
		follow      = flag.String("follow", "", "follower mode: the current leader's base URL, surfaced to clients as the write redirect")
		replicaList = flag.String("replicas", "", "comma-separated follower base URLs to ship WAL frames to")
		ackMode     = flag.String("ack", replica.AckAsync, "replication acknowledgement mode: async | quorum")
		ackTimeout  = flag.Duration("ack-timeout", 5*time.Second, "quorum mode: max time a /buy may wait for follower acks before a retryable 503")
		advertise   = flag.String("advertise", "", "this node's advertised base URL for peer redirects; default http://<addr>")

		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "server-side deadline per request; 0 disables")
		maxInflight = flag.Int("max-inflight", 0, "admission control: max concurrently served requests; 0 disables")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "max wait for an admission slot before shedding with 503")
		chaosSpec   = flag.String("chaos", "", "fault injection, e.g. err=0.1,latency=0.05,latency-ms=20,hang=0.01,drop=0.02,seed=7")
	)
	flag.Parse()

	// JSON logs, with trace_id/span_id lifted off the request context so
	// every line a request emits can be joined to its /debug/traces tree.
	logger := slog.New(trace.NewLogHandler(slog.NewJSONHandler(os.Stderr, nil)))
	slog.SetDefault(logger)

	// Replication sanity checks, before anything expensive starts. A
	// node replicates when it is a follower or has followers to ship to.
	if *role != "leader" && *role != "follower" {
		fatal(logger, fmt.Errorf("-role %q: want leader or follower", *role))
	}
	replicating := *role == "follower" || *replicaList != ""
	if replicating && *storeDir == "" {
		fatal(logger, errors.New("replication needs the WAL: set -store-dir"))
	}
	if *role == "follower" && *repriceEvery > 0 {
		fatal(logger, errors.New("followers do not reprice; -reprice-interval requires -role leader"))
	}
	// A leader shipping to followers watches its own lag: fold the
	// replica-lag objective into the SLO spec unless the operator
	// already chose one.
	if *role == "leader" && *replicaList != "" && *sloSpec != "" && !strings.Contains(*sloSpec, "replica-lag") {
		*sloSpec += ",replica-lag=500@0.05"
	}

	var opts []httpapi.Option
	if !*metrics {
		opts = append(opts, httpapi.WithoutMetrics())
	}
	if !*traces {
		// Nothing records: requests are served untraced, and background
		// work (training, audit sweeps, repricing epochs) finds no
		// default tracer. The auditor and repricer read trace.Default
		// when they are built, below.
		opts = append(opts, httpapi.WithoutTracing())
		trace.Default = nil
	}
	if *reqTimeout > 0 {
		opts = append(opts, httpapi.WithRequestTimeout(*reqTimeout))
	}
	if *maxInflight > 0 {
		opts = append(opts, httpapi.WithAdmission(*maxInflight, *queueWait))
	}
	var chaos *resilience.Chaos
	if *chaosSpec != "" {
		var err error
		chaos, err = resilience.ParseChaos(*chaosSpec)
		if err != nil {
			fatal(logger, err)
		}
		logger.Warn("CHAOS MODE: injecting faults into live traffic", "spec", *chaosSpec)
		opts = append(opts, httpapi.WithChaos(chaos))
	}
	// The exchange→broker hop ships guarded by default; single-broker
	// mode ignores these options.
	opts = append(opts, httpapi.WithHopBreaker(resilience.BreakerConfig{}))

	// Market-health stack, part 1: the self-scraper samples the serving
	// registry into a bounded ring (served at /metrics/history) and the
	// SLO evaluator computes burn rates off it after every scrape. Both
	// modes get this; the invariant auditor below is single-broker only.
	var scraper *ts.Scraper
	if *metrics && *scrapeEvery > 0 {
		st := ts.NewStore(*historyLen, 0)
		scraper = ts.NewScraper(obs.Default, st, *scrapeEvery)
		opts = append(opts, httpapi.WithTimeSeries(st))
		if *sloSpec != "" {
			objs, err := slo.ParseSpec(*sloSpec, scraper.Interval())
			if err != nil {
				fatal(logger, err)
			}
			ev := slo.NewEvaluator(st, obs.Default, objs)
			scraper.OnScrape(ev.Evaluate)
			opts = append(opts, httpapi.WithSLO(ev))
		}
		scraper.Start()
		logger.Info("metrics scraper running", "interval", scrapeEvery.String(), "history", *historyLen, "slo", *sloSpec)
	}

	if *dsList != "" {
		if *storeDir != "" {
			fatal(logger, errors.New("-store-dir supports single-broker mode only (not -datasets)"))
		}
		code := serveExchange(logger, *addr, strings.Split(*dsList, ","), *scale, *seed, *samples, *pprofOn, opts)
		if scraper != nil {
			scraper.Stop()
		}
		os.Exit(code)
	}

	// Warm start: a store directory carries an offer snapshot alongside
	// the WAL, so a restart reloads the published curves instead of
	// retraining — recovery replays state, it never re-derives it.
	warm := *load
	offerSnap := ""
	if *storeDir != "" {
		offerSnap = filepath.Join(*storeDir, "offers.json")
		if warm == "" {
			if _, err := os.Stat(offerSnap); err == nil {
				warm = offerSnap
			}
		}
	}

	mp, err := build(logger, *dsName, *scale, *seed, *samples, warm)
	if err != nil {
		fatal(logger, err)
	}
	if *save != "" {
		if err := saveOffers(mp, *save); err != nil {
			fatal(logger, err)
		}
		logger.Info("offers saved", "path", *save)
	}

	// A follower takes its stance before its journal is attached, so
	// recovery leaves the numbers the leader has not shipped yet to the
	// leader instead of journaling them as lost.
	if *role == "follower" {
		mp.Broker.SetFollower(*follow)
	}

	// The durable ledger replays the WAL into the broker, reports its
	// health on /healthz, and flushes on drain.
	var dled *market.DurableLedger
	if *storeDir != "" {
		dled, err = attachStore(logger, mp.Broker, *storeDir, *fsyncPol, chaos)
		if err != nil {
			fatal(logger, err)
		}
		opts = append(opts,
			httpapi.WithHealthCheck("store", dled.Healthy),
			httpapi.WithDrainHook("store-flush", func(context.Context) error { return dled.Flush() }))
		if warm != offerSnap {
			if err := saveOffers(mp, offerSnap); err != nil {
				fatal(logger, err)
			}
			logger.Info("offer snapshot saved for restart warm-start", "path", offerSnap)
		}
	}

	// Replication: every replicating node serves the wire protocol and
	// can apply frames (so a deposed leader rejoins as a follower); the
	// leader additionally ships its WAL to the configured followers.
	var repl *replica.Node
	if replicating {
		adv := *advertise
		if adv == "" {
			adv = "http://" + *addr
		}
		var targets []string
		for _, raw := range strings.Split(*replicaList, ",") {
			if tgt := strings.TrimSpace(raw); tgt != "" {
				targets = append(targets, tgt)
			}
		}
		repl, err = replica.New(replica.Config{
			Store:      dled.Store(),
			Applier:    market.NewFollowerApplier(mp.Broker, dled),
			Broker:     mp.Broker,
			Self:       adv,
			Targets:    targets,
			Ack:        *ackMode,
			AckTimeout: *ackTimeout,
			Chaos:      chaos,
			Logger:     logger,
			Seed:       *seed,
		})
		if err != nil {
			fatal(logger, err)
		}
		opts = append(opts, httpapi.WithReplication(repl))
		if *role == "leader" {
			repl.StartLeading()
		}
		logger.Info("replication active",
			"role", *role, "ack", *ackMode, "targets", len(targets),
			"epoch", dled.Store().Epoch(), "frames", dled.Store().Frames(), "advertise", adv)
	}

	// Online revenue re-optimization: the repricer re-fits demand from
	// the ledger every -reprice-interval and republishes the menu through
	// the copy-on-write snapshot after re-certification. Note a repriced
	// menu is not re-snapshotted to offers.json, so a warm restart
	// reverts to the trained prices (see docs/repricing.md).
	var reprice *repricer.Repricer
	if *repriceEvery > 0 {
		reprice = repricer.New(repricer.Config{
			Broker:   mp.Broker,
			Model:    mp.Model,
			Interval: *repriceEvery,
			Window:   *repriceWindow,
			Explore:  *explore,
			Seed:     *seed,
			Logger:   logger,
		})
		opts = append(opts, httpapi.WithRepricer(reprice))
		reprice.Start()
		logger.Info("repricer running",
			"interval", repriceEvery.String(), "window", *repriceWindow, "explore", *explore)
	}

	// Market-health stack, part 2: the invariant auditor sweeps the live
	// broker (arbitrage, conservation, WAL health, repricer publish
	// atomicity) and degrades /healthz on violation.
	var auditor *audit.Auditor
	if *auditEvery > 0 {
		acfg := audit.Config{Broker: mp.Broker, Interval: *auditEvery, Seed: *seed, Logger: logger}
		if dled != nil {
			acfg.FsyncLag = dled.FsyncLag
		}
		if reprice != nil {
			acfg.Repricer = reprice
			// Allow a generous multiple of the epoch cadence before
			// calling the repricer stalled.
			acfg.MaxEpochAge = 4 * *repriceEvery
		}
		if repl != nil {
			acfg.Replication = repl.AuditProbe
		}
		auditor = audit.New(acfg)
		opts = append(opts, httpapi.WithAuditor(auditor))
		auditor.Start()
		logger.Info("market auditor running", "interval", auditEvery.String(), "walChecks", dled != nil)
	}

	api := httpapi.New(mp.Broker, opts...)
	mux := api.Mux()
	if *pprofOn {
		obs.WirePprof(mux)
	}
	logger.Info("broker listening",
		"addr", *addr, "model", mp.Model.String(), "dataset", *dsName,
		"metrics", *metrics, "traces", *traces, "pprof", *pprofOn, "storeDir", *storeDir)
	code := serve(logger, *addr, mux, api.Drain)
	// Stop the repricer first (it publishes into the broker the auditor
	// probes), then the auditor before closing the store (it reads
	// FsyncLag), and the scraper last, so the final samples still land
	// in the ring.
	if reprice != nil {
		reprice.Stop()
	}
	if auditor != nil {
		auditor.Stop()
	}
	if scraper != nil {
		scraper.Stop()
	}
	// Stop the shippers before closing the store they tail.
	if repl != nil {
		repl.Stop()
	}
	// Close the store after the drain hooks flushed it. A close error
	// means the tail of the journal may not have hit disk — log it and
	// fail the exit code rather than pretend the shutdown was clean.
	if dled != nil {
		if err := dled.Close(); err != nil {
			logger.Error("store close failed", "dir", dled.Dir(), "err", err.Error())
			if code == 0 {
				code = 1
			}
		} else {
			logger.Info("store closed", "dir", dled.Dir())
		}
	}
	os.Exit(code)
}

// attachStore opens (and recovers) the durable ledger and attaches it
// to the broker, logging what the recovery found.
func attachStore(logger *slog.Logger, b *market.Broker, dir, fsync string, chaos *resilience.Chaos) (*market.DurableLedger, error) {
	pol, err := store.ParsePolicy(fsync)
	if err != nil {
		return nil, err
	}
	d, rs, err := market.OpenDurableLedger(dir, store.Options{
		Policy: pol,
		Faults: chaos.StoreFaults(),
	})
	if err != nil {
		return nil, err
	}
	b.AttachDurableLedger(d, rs)
	logger.Info("ledger recovered",
		"dir", dir, "fsync", pol.String(),
		"transactions", rs.Transactions, "skips", rs.Skips, "lost", len(rs.Lost),
		"maxSeq", rs.MaxSeq, "replayKeys", rs.Replays,
		"walRecords", rs.Stats.Records, "segments", rs.Stats.Segments,
		"truncatedBytes", rs.Stats.TruncatedBytes,
		"recoverySeconds", rs.Duration.Seconds())
	return d, nil
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err.Error())
	os.Exit(1)
}

// saveOffers dumps the broker's offers, reporting Close errors too: the
// dump is the warm-start input, so a short write (ENOSPC surfacing at
// close) must fail loudly rather than leave a truncated file behind.
func saveOffers(mp *core.Marketplace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mp.Broker.SaveOffers(f); err != nil {
		f.Close()
		return fmt.Errorf("saving offers: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("saving offers: %w", err)
	}
	return nil
}

// serve runs an http.Server with sane timeouts and drains it gracefully
// on SIGINT/SIGTERM: in-flight purchases finish (and their traces
// flush) before the process exits. After Shutdown — complete or not —
// the drain callback runs, so the store flushes whatever committed even
// when a straggling request forced an incomplete drain. Returns the
// process exit code; the caller closes the store afterwards.
func serve(logger *slog.Logger, addr string, handler http.Handler, drain func(ctx context.Context) error) int {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("fatal", "err", err.Error())
			return 1
		}
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		code := 0
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown incomplete", "err", err.Error())
			code = 1
		}
		if drain != nil {
			if err := drain(ctx); err != nil {
				logger.Error("drain hooks failed", "err", err.Error())
				code = 1
			}
		}
		if code == 0 {
			logger.Info("drained, exiting")
		}
		return code
	}
	return 0
}

// serveExchange trains one broker per dataset and serves them all as a
// multi-seller marketplace. Returns the process exit code.
func serveExchange(logger *slog.Logger, addr string, names []string, scale float64, seed uint64, samples int, pprofOn bool, opts []httpapi.Option) int {
	ex := market.NewExchange()
	for i, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		logger.Info("training listing", "dataset", name, "index", i+1, "of", len(names))
		mp, err := core.New(core.Config{
			Dataset:   name,
			Scale:     scale,
			Seed:      seed + uint64(i),
			MCSamples: samples,
		})
		if err != nil {
			fatal(logger, err)
		}
		if err := ex.List(name, mp.Broker); err != nil {
			fatal(logger, err)
		}
	}
	if len(ex.Listings()) == 0 {
		logger.Error("no datasets to list")
		os.Exit(2)
	}
	api := httpapi.NewExchange(ex, opts...)
	mux := api.Mux()
	if pprofOn {
		obs.WirePprof(mux)
	}
	logger.Info("exchange listening", "addr", addr, "listings", strings.Join(ex.Listings(), ","))
	return serve(logger, addr, mux, api.Drain)
}

// build either trains a fresh marketplace or warm-starts one from a
// saved offer dump (skipping the one-time training cost entirely).
func build(logger *slog.Logger, dsName string, scale float64, seed uint64, samples int, load string) (*core.Marketplace, error) {
	if load == "" {
		logger.Info("training optimal model (one-time broker cost)", "dataset", dsName)
		return core.New(core.Config{
			Dataset:   dsName,
			Scale:     scale,
			Seed:      seed,
			MCSamples: samples,
		})
	}
	logger.Info("warm-starting, no training", "path", load)
	mp, err := core.NewUntrained(core.Config{Dataset: dsName, Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(load)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := mp.Broker.LoadOffers(f); err != nil {
		return nil, err
	}
	models := mp.Broker.Models()
	if len(models) == 0 {
		return nil, fmt.Errorf("no offers in %s", load)
	}
	mp.Model = models[0]
	return mp, nil
}
