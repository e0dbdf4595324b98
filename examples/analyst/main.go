// Analyst: the paper's Example 2/3. Bob wants to classify whether a
// social-media message is about his company. The messages are embedded
// into a d-dimensional vector space (a word-embedding stand-in) and a
// logistic regression is sold through the MBP market.
//
// The example demonstrates the accuracy/price trade-off the paper
// motivates: Bob sweeps budgets, measures the realized 0/1 error of
// each purchased instance, and sees the error fall as spending grows —
// while the seller collects revenue from buyers who could never afford
// the raw feed.
//
// Run with:
//
//	go run ./examples/analyst
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/datamarket/mbp/internal/buyer"
	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/dataset"
	"github.com/datamarket/mbp/internal/linalg"
	"github.com/datamarket/mbp/internal/loss"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/rng"
)

const dim = 32 // embedding dimensionality

// messageData synthesizes embedded messages: company-related messages
// cluster around a topic direction with sparse, noisy embeddings.
func messageData(n int, seed uint64) *dataset.Split {
	r := rng.New(seed)
	topic := r.NormalVector(nil, dim)
	linalg.Scale(3/linalg.Norm2(topic), topic)
	rows := make([][]float64, n)
	ys := make([]float64, n)
	for i := range rows {
		// Leading constant-1 bias feature: the hypothesis space is
		// linear through the origin, so the intercept rides along as a
		// coordinate (standard practice).
		emb := make([]float64, dim+1)
		emb[0] = 1
		// Sparse embedding: ~25% of coordinates active.
		for j := 1; j <= dim; j++ {
			if r.Bernoulli(0.25) {
				emb[j] = r.Normal()
			}
		}
		related := r.Bernoulli(0.4)
		if related {
			linalg.Axpy(1, topic, emb[1:])
			ys[i] = 1
		} else {
			ys[i] = -1
		}
		rows[i] = emb
	}
	ds, err := dataset.New("tweet-embeddings", dataset.Classification, linalg.FromRows(rows), ys)
	if err != nil {
		panic(err)
	}
	sp, err := ds.SplitFraction(0.75, rng.New(seed+1))
	if err != nil {
		panic(err)
	}
	return &sp
}

func main() {
	split := messageData(6000, 21)

	mp, err := core.New(core.Config{
		Data:        split,
		Model:       ml.LogisticRegression,
		ModelSet:    true,
		Mu:          1e-3,
		Seed:        9,
		MCSamples:   300,
		ValueShape:  curves.Sigmoid,
		DemandShape: curves.BimodalExtremes,
		MaxValue:    200,
		// Offer NCPs δ = 1/x for x ∈ (0, 4]: strong noise at the cheap
		// end so the accuracy/price trade-off is visible on a 32-dim
		// model.
		GridPoints: 16,
		XMax:       4,
	})
	if err != nil {
		log.Fatal(err)
	}

	optimal, err := mp.Broker.Optimal(mp.Model)
	if err != nil {
		log.Fatal(err)
	}
	bestErr := optimal.Eval(loss.ZeroOne{}, split.Test)
	fmt.Printf("Bob's task: %v over %d-dim embeddings (%d train messages)\n",
		mp.Model, dim, split.Train.N())
	fmt.Printf("the broker's optimal model scores 0/1 test error %.4f — never sold directly\n\n", bestErr)

	fmt.Println("budget sweep (option 3 — price budget):")
	fmt.Printf("%-10s %-10s %-14s %-14s\n", "budget", "δ", "quoted err", "realized 0/1")
	for _, budget := range []float64{20, 40, 80, 140, 195} {
		p, err := mp.Broker.BuyWithPriceBudgetContext(context.Background(), mp.Model, budget)
		if err != nil {
			log.Fatal(err)
		}
		realized := p.Instance.Eval(loss.ZeroOne{}, split.Test)
		fmt.Printf("%-10.0f %-10.4g %-14.6g %-14.4f\n", budget, p.Delta, p.ExpectedError, realized)
	}

	// The seller's perspective: simulate the buyer population from the
	// bimodal demand curve (hobbyists want cheap models, competitors
	// want accurate ones). Each buyer wants the version at one research
	// grid point and, error-first, buys the cheapest version reaching
	// its error when that costs no more than the buyer's valuation.
	menu, err := mp.Broker.PriceErrorCurve(mp.Model)
	if err != nil {
		log.Fatal(err)
	}
	// The menu is cheapest-first, the research grid's order.
	menuErrs := make([]float64, len(menu))
	for i, row := range menu {
		menuErrs[i] = row.ExpectedError
	}
	pop, err := buyer.NewPopulation(mp.Seller.Research, menuErrs, 1)
	if err != nil {
		log.Fatal(err)
	}
	strategy := buyer.ErrorFirst{}
	sum, err := buyer.Run(mp.Broker, mp.Model, strategy, pop.Sample(2000, rng.New(77)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated population of %d %s buyers: %d purchases (affordability %.2f), revenue %.1f\n",
		sum.Buyers, strategy.Name(), sum.Sales, sum.Affordability, sum.Revenue)
	sellerShare, brokerShare := mp.Broker.RevenueSplit()
	fmt.Printf("seller share %.1f, broker commission %.1f\n", sellerShare, brokerShare)
}
