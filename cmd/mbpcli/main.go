// Command mbpcli runs a complete model-based-pricing session against a
// CSV dataset from the shell: train the optimal model, publish the
// arbitrage-free price–error menu, and optionally execute a purchase.
//
// The CSV must have a header row; the last column is the target. For
// classification the targets must be ±1.
//
// Usage:
//
//	mbpcli -data sales.csv -task regression -menu
//	mbpcli -data spam.csv -task classification -model linear-svm -budget 40
//	mbpcli -data sales.csv -task regression -maxerr 2.5
//	mbpcli -gen CASP -menu            # use a built-in synthetic dataset
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/datamarket/mbp/internal/core"
	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/dataset"
	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/rng"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV file (header row; last column = target)")
		gen      = flag.String("gen", "", "built-in dataset instead of -data (Simulated1, YearMSD, CASP, Simulated2, CovType, SUSY)")
		taskName = flag.String("task", "regression", "task for -data: regression or classification")
		modelArg = flag.String("model", "", "model: linear-regression, logistic-regression, linear-svm (default by task)")
		mu       = flag.Float64("mu", 0, "L2 regularization strength (0 = default)")
		scale    = flag.Float64("scale", 0.005, "scale for -gen datasets")
		seed     = flag.Uint64("seed", 1, "random seed")
		samples  = flag.Int("samples", 200, "Monte-Carlo draws per menu row")
		research = flag.String("research", "", "market-research CSV with a,v,b columns (see curves.ReadCSV)")
		menu     = flag.Bool("menu", false, "print the price–error menu")
		budget   = flag.Float64("budget", 0, "buy with this price budget")
		maxErr   = flag.Float64("maxerr", 0, "buy with this error budget")
		delta    = flag.Float64("delta", 0, "buy at this exact NCP δ")
	)
	flag.Parse()

	cfg := core.Config{Mu: *mu, Seed: *seed, MCSamples: *samples, Scale: *scale}
	switch {
	case *dataPath != "" && *gen != "":
		fail(fmt.Errorf("set -data or -gen, not both"))
	case *gen != "":
		cfg.Dataset = *gen
	case *dataPath != "":
		task := dataset.Regression
		switch *taskName {
		case "regression":
		case "classification":
			task = dataset.Classification
		default:
			fail(fmt.Errorf("unknown task %q", *taskName))
		}
		f, err := os.Open(*dataPath)
		if err != nil {
			fail(err)
		}
		ds, err := dataset.ReadCSV(f, *dataPath, task)
		f.Close()
		if err != nil {
			fail(err)
		}
		split, err := ds.SplitFraction(0.75, rng.New(*seed))
		if err != nil {
			fail(err)
		}
		cfg.Data = &split
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *modelArg != "" {
		m, err := modelByName(*modelArg)
		if err != nil {
			fail(err)
		}
		cfg.Model, cfg.ModelSet = m, true
	}

	if *research != "" {
		f, err := os.Open(*research)
		if err != nil {
			fail(err)
		}
		m, err := curves.ReadCSV(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		cfg.Research = m
	}

	fmt.Fprintln(os.Stderr, "mbpcli: training optimal model (one-time broker cost)...")
	mp, err := core.New(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset: %s (train %d × %d, test %d)\nmodel:   %v\n",
		mp.Seller.Data.Train.Name, mp.Seller.Data.Train.N(), mp.Seller.Data.Train.D(),
		mp.Seller.Data.Test.N(), mp.Model)

	rows, err := mp.Broker.PriceErrorCurve(mp.Model)
	if err != nil {
		fail(err)
	}
	if *menu || (*budget == 0 && *maxErr == 0 && *delta == 0) {
		fmt.Println("\nprice–error menu (cheapest first):")
		fmt.Printf("%-12s %-14s %-10s\n", "delta", "expectedErr", "price")
		for _, r := range rows {
			fmt.Printf("%-12.5g %-14.6g %-10.4f\n", r.Delta, r.ExpectedError, r.Price)
		}
	}

	ctx := context.Background()
	var p *market.Purchase
	switch {
	case *budget > 0:
		p, err = mp.Broker.BuyWithPriceBudgetContext(ctx, mp.Model, *budget)
	case *maxErr > 0:
		p, err = mp.Broker.BuyWithErrorBudgetForContext(ctx, mp.Model, "", *maxErr)
	case *delta > 0:
		p, err = mp.Broker.BuyAtPointContext(ctx, mp.Model, *delta)
	default:
		return
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("\npurchase: δ=%.5g expectedErr=%.6g price=%.4f\nweights: %v\n",
		p.Delta, p.ExpectedError, p.Price, p.Instance.W)
}

func modelByName(name string) (ml.Model, error) {
	for _, m := range []ml.Model{ml.LinearRegression, ml.LogisticRegression, ml.LinearSVM} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mbpcli:", err)
	os.Exit(1)
}
