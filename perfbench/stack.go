package main

// The serving stack under test, stood up in this process from the same
// public constructors and defaults cmd/mbpmarket uses: httpapi with
// metrics and request tracing on, the metrics scraper feeding the SLO
// evaluator, the invariant auditor at audit.DefaultInterval, a
// write-ahead log at -fsync always when the workload is durable, and
// for quorum a leader shipping to in-process followers that serve the
// replica wire protocol (wired as internal/replica's cluster tests wire
// them). Everything listens on loopback.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/datamarket/mbp/internal/httpapi"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/audit"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/slo"
	"github.com/datamarket/mbp/internal/obs/ts"
	"github.com/datamarket/mbp/internal/replica"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/store"
)

// brokerSeed seeds every broker's noise streams; the workload seed only
// shapes the traffic.
const brokerSeed = 1

// ackTimeout is cmd/mbpmarket's default -ack-timeout.
const ackTimeout = 5 * time.Second

// taps are the benchmark's own timers around the program's public
// hooks. They count only while on is set (the traced phase).
type taps struct {
	on atomic.Bool

	appends, fsyncs atomic.Uint64 // leader store.Options.Hooks
	appendNs        atomic.Int64

	acks  atomic.Uint64 // leader ack barrier (Node.WaitQuorum)
	ackNs atomic.Int64

	posts, frames atomic.Uint64 // follower POST /replica/frames
	applyNs       atomic.Int64
}

func (t *taps) storeHooks() store.Hooks {
	return store.Hooks{
		OnAppend: func(d time.Duration) {
			if t.on.Load() {
				t.appends.Add(1)
				t.appendNs.Add(int64(d))
			}
		},
		OnFsync: func() {
			if t.on.Load() {
				t.fsyncs.Add(1)
			}
		},
	}
}

// frames wraps a follower's HandleFrames, timing each POST and counting
// the frames it applied.
func (t *taps) framesHandler(st *store.Store, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h(w, r)
			return
		}
		f0, t0 := st.Frames(), time.Now()
		h(w, r)
		t.applyNs.Add(int64(time.Since(t0)))
		t.frames.Add(st.Frames() - f0)
		t.posts.Add(1)
	}
}

// server is one loopback HTTP listener.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve runs h on ln with cmd/mbpmarket's server timeouts.
func serve(ln net.Listener, h http.Handler) *server {
	s := &server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// follower is one in-process replica serving the wire protocol.
type follower struct {
	d    *market.DurableLedger
	node *replica.Node
	srv  *server
}

// stack is one stood-up serving stack.
type stack struct {
	dir     string
	b       *market.Broker
	d       *market.DurableLedger // nil for the in-memory ledger
	rs      *market.RecoveredState
	repl    *replica.Node
	scraper *ts.Scraper
	auditor *audit.Auditor
	opts    []httpapi.Option // the options the served API was built with
	srv     *server
	front   *server // a second API over the same broker (traced runs)

	followers []*follower

	recoverDur time.Duration // OpenDurableLedger on the leader's journal
	attachDur  time.Duration // AttachDurableLedger (replay-cache seeding)
}

func newBroker(spec *workloadSpec) (*market.Broker, error) {
	if spec.sellers > 1 {
		return markettest.NewMultiSeller(brokerSeed, spec.sellers)
	}
	return markettest.New(brokerSeed)
}

// walOptions are the -fsync always store options, plus the traced
// run's hooks on the leader.
func walOptions(t *taps) store.Options {
	o := store.Options{Policy: store.FsyncAlways}
	if t != nil {
		o.Hooks = t.storeHooks()
	}
	return o
}

// buildStack stands the stack up in dir and returns once the leader
// answers GET /healthz. t is nil in untraced runs; front options are
// appended to the served API's.
func buildStack(spec *workloadSpec, dir string, logger *slog.Logger, t *taps, front ...httpapi.Option) (st *stack, err error) {
	st = &stack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	opts := []httpapi.Option{
		httpapi.WithLogger(logger),
		httpapi.WithRequestTimeout(30 * time.Second),
		httpapi.WithHopBreaker(resilience.BreakerConfig{}),
	}

	// Market-health stack, part 1: scraper and SLO evaluator.
	tss := ts.NewStore(ts.DefaultCapacity, 0)
	st.scraper = ts.NewScraper(obs.Default, tss, ts.DefaultInterval)
	opts = append(opts, httpapi.WithTimeSeries(tss))
	sloSpec := slo.DefaultSpec
	if spec.followers > 0 {
		sloSpec += ",replica-lag=500@0.05"
	}
	objs, err := slo.ParseSpec(sloSpec, st.scraper.Interval())
	if err != nil {
		return st, err
	}
	ev := slo.NewEvaluator(tss, obs.Default, objs)
	st.scraper.OnScrape(ev.Evaluate)
	opts = append(opts, httpapi.WithSLO(ev))
	st.scraper.Start()

	if st.b, err = newBroker(spec); err != nil {
		return st, err
	}
	ln, err := listen()
	if err != nil {
		return st, err
	}
	defer func() {
		if st.srv == nil {
			ln.Close()
		}
	}()

	if spec.durable {
		t0 := time.Now()
		d, rs, err := market.OpenDurableLedger(filepath.Join(dir, "leader"), walOptions(t))
		if err != nil {
			return st, fmt.Errorf("opening the leader journal: %w", err)
		}
		t1 := time.Now()
		st.b.AttachDurableLedger(d, rs)
		st.d, st.rs = d, rs
		st.recoverDur, st.attachDur = t1.Sub(t0), time.Since(t1)
		opts = append(opts,
			httpapi.WithHealthCheck("store", d.Healthy),
			httpapi.WithDrainHook("store-flush", func(context.Context) error { return d.Flush() }))
	}

	if spec.followers > 0 {
		var targets []string
		for i := 0; i < spec.followers; i++ {
			f, err := startFollower(spec, filepath.Join(dir, fmt.Sprintf("follower-%d", i+1)), t)
			if err != nil {
				return st, err
			}
			st.followers = append(st.followers, f)
			targets = append(targets, f.srv.url)
		}
		st.repl, err = replica.New(replica.Config{
			Store:      st.d.Store(),
			Applier:    market.NewFollowerApplier(st.b, st.d),
			Broker:     st.b,
			Self:       "http://" + ln.Addr().String(),
			Targets:    targets,
			Ack:        replica.AckQuorum,
			AckTimeout: ackTimeout,
			Logger:     logger,
			Seed:       brokerSeed,
		})
		if err != nil {
			return st, err
		}
		opts = append(opts, httpapi.WithReplication(st.repl))
		st.repl.StartLeading()
	}

	// Market-health stack, part 2: the invariant auditor.
	acfg := audit.Config{Broker: st.b, Interval: audit.DefaultInterval, Seed: brokerSeed, Logger: logger}
	if st.d != nil {
		acfg.FsyncLag = st.d.FsyncLag
	}
	if st.repl != nil {
		acfg.Replication = st.repl.AuditProbe
	}
	st.auditor = audit.New(acfg)
	opts = append(opts, httpapi.WithAuditor(st.auditor))
	st.auditor.Start()

	st.opts = opts
	st.srv = serve(ln, httpapi.New(st.b, append(opts, front...)...).Mux())
	if err := waitHealthy(st.srv.url); err != nil {
		return st, err
	}
	return st, nil
}

// startFollower builds one follower: broker, journal, replica node and
// the wire-protocol handlers on a loopback listener.
func startFollower(spec *workloadSpec, dir string, t *taps) (*follower, error) {
	b, err := newBroker(spec)
	if err != nil {
		return nil, err
	}
	d, rs, err := market.OpenDurableLedger(dir, walOptions(nil))
	if err != nil {
		return nil, fmt.Errorf("opening a follower journal: %w", err)
	}
	b.AttachDurableLedger(d, rs)
	b.SetFollower("")
	ln, err := listen()
	if err != nil {
		d.Close()
		return nil, err
	}
	n, err := replica.New(replica.Config{
		Store:   d.Store(),
		Applier: market.NewFollowerApplier(b, d),
		Broker:  b,
		Self:    "http://" + ln.Addr().String(),
	})
	if err != nil {
		ln.Close()
		d.Close()
		return nil, err
	}
	frames := n.HandleFrames
	if t != nil {
		frames = t.framesHandler(d.Store(), n.HandleFrames)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/replica/frames", frames)
	mux.HandleFunc("/replica/snapshot", n.HandleSnapshot)
	mux.HandleFunc("/replica/status", n.HandleStatus)
	mux.HandleFunc("/admin/promote", n.HandlePromote)
	return &follower{d: d, node: n, srv: serve(ln, mux)}, nil
}

// waitHealthy asks GET /healthz until it answers 200. The listener is
// bound before Serve starts, so the first call normally succeeds; a
// retry yields rather than sleeps, because a sleep wakes up to a
// millisecond late on an idle box and set-up on an in-memory stack is
// about a millisecond.
func waitHealthy(base string) error {
	hc := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("GET /healthz: HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		runtime.Gosched()
	}
}

// addFront serves a second API over the same broker with extra options
// appended (the traced run's own tracer) and returns its base URL.
func (st *stack) addFront(extra ...httpapi.Option) (string, error) {
	ln, err := listen()
	if err != nil {
		return "", err
	}
	opts := append(append([]httpapi.Option(nil), st.opts...), extra...)
	st.front = serve(ln, httpapi.New(st.b, opts...).Mux())
	return st.front.url, waitHealthy(st.front.url)
}

// converged waits until every follower holds the leader's stream, frame
// for frame and digest for digest.
func (st *stack) converged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lf, ld := st.d.Store().Frames(), st.d.Store().StreamDigest()
		behind := 0
		for _, f := range st.followers {
			if f.d.Store().Frames() != lf || f.d.Store().StreamDigest() != ld {
				behind++
			}
		}
		if behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d followers differ from the leader (%d frames, digest %08x) after %v",
				behind, len(st.followers), lf, ld, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close tears the stack down in cmd/mbpmarket's order: auditor,
// scraper, shippers, servers, then the journals.
func (st *stack) close() error {
	if st.auditor != nil {
		st.auditor.Stop()
	}
	if st.scraper != nil {
		st.scraper.Stop()
	}
	if st.repl != nil {
		st.repl.Stop()
	}
	if st.front != nil {
		st.front.close()
	}
	if st.srv != nil {
		st.srv.close()
	}
	var errs []error
	if st.d != nil {
		errs = append(errs, st.d.Close())
	}
	for _, f := range st.followers {
		f.node.Stop()
		f.srv.close()
		errs = append(errs, f.d.Close())
	}
	return errors.Join(errs...)
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
