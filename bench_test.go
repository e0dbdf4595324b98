package mbp

// One benchmark per paper artifact (Table 3, Figures 6–10) plus the
// ablation benches called out in DESIGN.md. Each figure bench executes
// the same computation the mbpbench experiment performs, with reporting
// silenced, so `go test -bench=.` regenerates every evaluation artifact
// under the Go benchmark harness. Scales are reduced relative to
// `mbpbench` defaults to keep a full -bench=. sweep in the minutes
// range; the shapes (who wins, by what factor, where crossovers fall)
// are scale-invariant.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/experiments"
	"github.com/datamarket/mbp/internal/loss"
	"github.com/datamarket/mbp/internal/milp"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/revopt"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/synth"
)

// benchCfg silences the reports and trims the Monte-Carlo budgets.
func benchCfg() experiments.Config {
	return experiments.Config{
		Out:            io.Discard,
		Scale:          0.001,
		Samples:        100,
		Seed:           1,
		MaxPricePoints: 8,
	}
}

func BenchmarkTable3DatasetGen(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ErrorTransform(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7RevenueValueCurves(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8RevenueDemandCurves(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9RuntimeValueCurves(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10RuntimeDemandCurves(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Solvers breaks the Figure 9 runtime panel into
// per-method sub-benchmarks at each price-point count, exposing the
// polynomial-vs-exponential gap directly in benchmark output.
func BenchmarkFig9Solvers(b *testing.B) {
	base, err := curves.Build(curves.Concave, curves.UnimodalMid, 100, 100, 100)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 4, 6, 8, 10} {
		sub, err := base.Subsample(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("MBP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := revopt.MaximizeRevenueDPContext(context.Background(), sub); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("MILP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := revopt.MaximizeRevenueMILP(sub, milp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("OptC/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = revopt.OptC(sub)
			}
		})
	}
}

// --- Ablations (DESIGN.md, "Design choices worth ablating") ---

// BenchmarkAblationSaleVsRetrain quantifies the paper's "real time
// interaction" claim: a sale under MBP is one noise draw over the
// pre-trained optimum, versus the naive design that retrains a model
// for every buyer.
func BenchmarkAblationSaleVsRetrain(b *testing.B) {
	sp, err := synth.Generate("CASP", 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	optimal, err := ml.Train(ml.LinearRegression, sp.Train, ml.Options{Mu: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.Run("mbp-sale", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = noise.Gaussian{}.Perturb(optimal, 0.1, r)
		}
	})
	b.Run("retrain-per-sale", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.Train(ml.LinearRegression, sp.Train, ml.Options{Mu: 0.01}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTrainerClosedFormVsGD compares the broker's one-time
// training cost across the three training paths on the same ridge
// problem.
func BenchmarkAblationTrainerClosedFormVsGD(b *testing.B) {
	sp, err := synth.Generate("CASP", 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name   string
		method ml.Method
	}{
		{"closed-form", ml.ClosedForm},
		{"newton", ml.NewtonMethod},
		{"gradient-descent", ml.GD},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ml.Train(ml.LinearRegression, sp.Train, ml.Options{Mu: 0.01, Method: m.method}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMechanisms compares the per-sale cost of the three
// unbiased mechanisms at equal variance.
func BenchmarkAblationMechanisms(b *testing.B) {
	w := make([]float64, 64)
	for i := range w {
		w[i] = float64(i)
	}
	optimal := &ml.Instance{Model: ml.LinearRegression, W: w, Optimal: true}
	r := rng.New(1)
	for _, k := range noise.All() {
		b.Run(k.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = k.Perturb(optimal, 1, r)
			}
		})
	}
}

// BenchmarkAblationRevenueSolvers compares every revenue/interpolation
// solver on one market instance (n=8 so the exact methods terminate).
func BenchmarkAblationRevenueSolvers(b *testing.B) {
	base, err := curves.Build(curves.Concave, curves.BimodalExtremes, 100, 100, 100)
	if err != nil {
		b.Fatal(err)
	}
	m, err := base.Subsample(8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("DP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := revopt.MaximizeRevenueDPContext(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExactSubsets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := revopt.MaximizeRevenueExact(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MILP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := revopt.MaximizeRevenueMILP(m, milp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("InterpolateL2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := revopt.InterpolateL2(m.A, m.V); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("InterpolateL1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := revopt.InterpolateL1(m.A, m.V); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTransformAnalyticVsEmpirical compares the broker's
// offer-construction cost with the closed-form square-loss transform
// against the Monte-Carlo path it replaces.
func BenchmarkAblationTransformAnalyticVsEmpirical(b *testing.B) {
	sp, err := synth.Generate("CASP", 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	optimal, err := ml.Train(ml.LinearRegression, sp.Train, ml.Options{})
	if err != nil {
		b.Fatal(err)
	}
	deltas := []float64{0.01, 0.05, 0.1, 0.5, 1, 5}
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pricing.AnalyticSquareTransform(optimal, sp.Test, deltas); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("empirical-2000", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			if _, err := pricing.NewEmpirical(noise.Gaussian{}, optimal, loss.Square{}, sp.Test, deltas, 2000, r.Split()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPhiSamples measures the empirical error-inverse
// transform's cost as the Monte-Carlo budget grows — the knob trading
// menu accuracy for broker setup time.
func BenchmarkAblationPhiSamples(b *testing.B) {
	sp, err := synth.Generate("CASP", 0.005, 1)
	if err != nil {
		b.Fatal(err)
	}
	optimal, err := ml.Train(ml.LinearRegression, sp.Train, ml.Options{})
	if err != nil {
		b.Fatal(err)
	}
	deltas := []float64{0.01, 0.05, 0.1, 0.5, 1}
	for _, samples := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				if _, err := pricing.NewEmpirical(noise.Gaussian{}, optimal, loss.Square{}, sp.Test, deltas, samples, r.Split()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
