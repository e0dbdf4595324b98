package market

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/synth"
)

// classificationBroker builds a SUSY broker with logistic regression
// published — a fixture whose dataset admits a second model
// (LinearSVM), so tests can exercise a real snapshot swap while
// serving.
func classificationBroker(t testing.TB) *Broker {
	t.Helper()
	sp, err := synth.Generate("SUSY", 0.0005, 2)
	if err != nil {
		t.Fatal(err)
	}
	research, err := curves.Build(curves.Sigmoid, curves.Uniform, 10, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(&Seller{Name: "susy", Data: sp, Research: research}, noise.Gaussian{}, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddModel(ml.LogisticRegression, AddModelOptions{
		Train:     ml.Options{Mu: 1e-3},
		MCSamples: 30,
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHotPathLockFreeUnderMu verifies the acceptance criterion
// directly: with Broker.mu held (as a slow AddModel would hold it),
// every serving-path operation still completes. Before the snapshot
// refactor each of these calls deadlocked here.
func TestHotPathLockFreeUnderMu(t *testing.T) {
	b := testBroker(t)
	menu, err := b.PriceErrorCurve(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	delta := menu[len(menu)/2].Delta

	b.mu.Lock()
	defer b.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, _, err := b.QuoteContext(context.Background(), ml.LinearRegression, delta); err != nil {
				done <- err
				return
			}
			if _, err := b.PriceErrorCurveFor(ml.LinearRegression, ""); err != nil {
				done <- err
				return
			}
			if _, err := b.Epsilons(ml.LinearRegression); err != nil {
				done <- err
				return
			}
			if got := b.Models(); len(got) != 1 {
				done <- errors.New("Models() lost the offer")
				return
			}
			if _, err := b.BuyAtPointContext(context.Background(), ml.LinearRegression, delta); err != nil {
				done <- err
				return
			}
			_ = b.Ledger()
			_, _ = b.RevenueSplit()
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serving path blocked on Broker.mu")
	}
	if n := len(b.Ledger()); n != 50 {
		t.Fatalf("ledger rows %d, want 50", n)
	}
}

// TestBrokerStressMixedOps is the 64-goroutine stress mix of the
// serving and publishing paths, run under -race in CI: buys, quotes,
// ledger merges, duplicate AddModel attempts, and one successful
// AddModel (a real offer-snapshot swap) all in flight together. After
// the storm the ledger must hold exactly one row per successful sale
// with Seq values unique and contiguous 1..n, and the commission split
// must conserve the ledger total.
func TestBrokerStressMixedOps(t *testing.T) {
	b := classificationBroker(t)
	menu, err := b.PriceErrorCurve(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}
	cheapest, best := menu[0], menu[len(menu)-1]

	const workers = 64
	const perWorker = 12
	var sales atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch (w + i) % 8 {
				case 0:
					if w == 0 && i == 0 {
						// The one real publish: a second model swapped
						// into the offer snapshot mid-traffic.
						if err := b.AddModel(ml.LinearSVM, AddModelOptions{
							Train:     ml.Options{Mu: 1e-3},
							MCSamples: 20,
						}); err != nil {
							errs <- err
						}
						continue
					}
					// Duplicate publishes must fail fast without
					// disturbing the serving path.
					if err := b.AddModel(ml.LogisticRegression, AddModelOptions{}); err == nil {
						errs <- errors.New("duplicate AddModel accepted")
					}
				case 1:
					if _, _, err := b.QuoteContext(context.Background(), ml.LogisticRegression, best.Delta); err != nil {
						errs <- err
					}
				case 2:
					_ = b.Ledger()
					_, _ = b.RevenueSplit()
				case 3:
					if _, err := b.BuyWithErrorBudgetForContext(context.Background(), ml.LogisticRegression, "", cheapest.ExpectedError); err != nil {
						errs <- err
					} else {
						sales.Add(1)
					}
				case 4:
					if _, err := b.BuyWithPriceBudgetContext(context.Background(), ml.LogisticRegression, best.Price); err != nil {
						errs <- err
					} else {
						sales.Add(1)
					}
				default:
					if _, err := b.BuyAtPointContext(context.Background(), ml.LogisticRegression, cheapest.Delta); err != nil {
						errs <- err
					} else {
						sales.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ledger := b.Ledger()
	if int64(len(ledger)) != sales.Load() {
		t.Fatalf("ledger rows %d, want %d", len(ledger), sales.Load())
	}
	var total float64
	for i, tx := range ledger {
		// snapshot() sorts by Seq; contiguity means row i holds Seq i+1.
		if tx.Seq != i+1 {
			t.Fatalf("row %d has Seq %d: sequence numbers not contiguous", i, tx.Seq)
		}
		if tx.Price <= 0 {
			t.Fatalf("non-positive price in %+v", tx)
		}
		total += tx.Price
	}
	seller, broker := b.RevenueSplit()
	if math.Abs(total-seller-broker) > 1e-9*(1+total) {
		t.Fatalf("revenue split %v+%v does not conserve ledger total %v", seller, broker, total)
	}
	// The mid-traffic publish landed.
	if models := b.Models(); len(models) != 2 {
		t.Fatalf("models after storm: %v", models)
	}
}

// TestSequentialPurchaseDeterminism: two brokers with the same seed
// serving the same sequential purchase script produce identical
// instances, prices, and sequence numbers.
func TestSequentialPurchaseDeterminism(t *testing.T) {
	a, b := testBroker(t), testBroker(t)
	script := []float64{0.1, 0.05, 0.25, 0.1, 0.04, 0.1}
	for step, delta := range script {
		pa, err := a.BuyAtPointContext(context.Background(), ml.LinearRegression, delta)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.BuyAtPointContext(context.Background(), ml.LinearRegression, delta)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Seq != pb.Seq || pa.Seq != step+1 {
			t.Fatalf("step %d: seqs %d vs %d", step, pa.Seq, pb.Seq)
		}
		if pa.Price != pb.Price || pa.ExpectedError != pb.ExpectedError {
			t.Fatalf("step %d: quotes diverged", step)
		}
		for i := range pa.Instance.W {
			if pa.Instance.W[i] != pb.Instance.W[i] {
				t.Fatalf("step %d: weights diverged at coordinate %d", step, i)
			}
		}
	}
	// A different seed yields different noise on the same script.
	c, err := NewBroker(testSeller(t), noise.Gaussian{}, 1234, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddModel(ml.LinearRegression, AddModelOptions{MCSamples: 60}); err != nil {
		t.Fatal(err)
	}
	pa, err := a.BuyAtPointContext(context.Background(), ml.LinearRegression, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var pc *Purchase
	for i := 0; i < len(script)+1; i++ { // align sequence numbers
		if pc, err = c.BuyAtPointContext(context.Background(), ml.LinearRegression, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if pa.Seq != pc.Seq {
		t.Fatalf("seq alignment broken: %d vs %d", pa.Seq, pc.Seq)
	}
	same := true
	for i := range pa.Instance.W {
		if pa.Instance.W[i] != pc.Instance.W[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different broker seeds produced identical noise draws")
	}
}

// TestParallelPurchasesPerStreamDeterministic documents the concurrency
// contract: a purchase's noise depends only on (broker seed, Seq, δ),
// so parallel purchases reproduce the sequential run stream for stream
// once matched up by their assigned sequence numbers.
func TestParallelPurchasesPerStreamDeterministic(t *testing.T) {
	const delta = 0.1
	const n = 32

	serial := testBroker(t)
	want := make(map[int][]float64, n)
	for i := 0; i < n; i++ {
		p, err := serial.BuyAtPointContext(context.Background(), ml.LinearRegression, delta)
		if err != nil {
			t.Fatal(err)
		}
		want[p.Seq] = p.Instance.W
	}

	parallel := testBroker(t)
	var mu sync.Mutex
	got := make(map[int][]float64, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				p, err := parallel.BuyAtPointContext(context.Background(), ml.LinearRegression, delta)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				got[p.Seq] = p.Instance.W
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if len(got) != n {
		t.Fatalf("parallel run recorded %d distinct seqs, want %d", len(got), n)
	}
	for seq, w := range want {
		g, ok := got[seq]
		if !ok {
			t.Fatalf("parallel run missing seq %d", seq)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("seq %d: parallel weights diverge from sequential at coordinate %d", seq, i)
			}
		}
	}
}

// TestQuotesCertifiedUnderPublish is the arbitrage-freeness property
// under concurrency: while AddModel swaps a new offer table in, every
// observed (model, δ, price) must lie exactly on a published curve
// that passes Certify — no torn snapshot may ever serve a price off a
// non-certified curve.
func TestQuotesCertifiedUnderPublish(t *testing.T) {
	b := classificationBroker(t)
	menu, err := b.PriceErrorCurve(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}

	type obs struct {
		model ml.Model
		delta float64
		price float64
	}
	var mu sync.Mutex
	var observed []obs

	publishDone := make(chan error, 1)
	go func() {
		publishDone <- b.AddModel(ml.LinearSVM, AddModelOptions{
			Train:     ml.Options{Mu: 1e-3},
			MCSamples: 40,
		})
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case err := <-publishDone:
					publishDone <- err
					return
				default:
				}
				row := menu[(w+i)%len(menu)]
				price, _, err := b.QuoteContext(context.Background(), ml.LogisticRegression, row.Delta)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				observed = append(observed, obs{ml.LogisticRegression, row.Delta, price})
				mu.Unlock()
				// Quote the in-flight model too: before the swap it must
				// be unknown, after it must serve its own curve.
				if price, _, err := b.QuoteContext(context.Background(), ml.LinearSVM, row.Delta); err == nil {
					mu.Lock()
					observed = append(observed, obs{ml.LinearSVM, row.Delta, price})
					mu.Unlock()
				} else if !errors.Is(err, ErrUnknownModel) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-publishDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every observation lies on its model's (unique, immutable) curve,
	// and that curve certifies arbitrage-free.
	curveOf := make(map[ml.Model]interface {
		Price(float64) float64
		Certify() error
	})
	for _, m := range b.Models() {
		c, err := b.Curve(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Certify(); err != nil {
			t.Fatalf("published curve for %v not certified: %v", m, err)
		}
		curveOf[m] = c
	}
	for _, o := range observed {
		c, ok := curveOf[o.model]
		if !ok {
			t.Fatalf("observed quote for unpublished model %v", o.model)
		}
		if want := c.Price(1 / o.delta); o.price != want {
			t.Fatalf("quote (%v, δ=%v) = %v off the certified curve (want %v)", o.model, o.delta, o.price, want)
		}
	}
	if len(observed) == 0 {
		t.Fatal("no quotes observed during publish")
	}
}
