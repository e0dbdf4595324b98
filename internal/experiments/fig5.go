package experiments

import (
	"context"
	"fmt"

	"github.com/datamarket/mbp/internal/arbitrage"
	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/plot"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/revopt"
)

// Fig5 reproduces the paper's running example (Figure 5): four price
// points a = 1..4 with uniform demand 0.25 and valuations
// 100/150/280/350, priced five ways —
//
//	(a) at the valuations themselves (has arbitrage),
//	(b) the best constant price,
//	(c) linear pricing,
//	(d) the exact coNP-hard optimum,
//	(e) the polynomial MBP approximation,
//
// printing each scheme's prices, revenue, and (for panel a) the
// concrete arbitrage attack a buyer would mount.
func Fig5(cfg Config) error {
	cfg = cfg.withDefaults()
	section(cfg.Out, "Figure 5: the running revenue-optimization example")

	m := &curves.Market{
		A: []float64{1, 2, 3, 4},
		V: []float64{100, 150, 280, 350},
		B: []float64{0.25, 0.25, 0.25, 0.25},
	}
	if err := m.Validate(); err != nil {
		return err
	}

	t := &table{header: []string{"panel", "scheme", "z(1)", "z(2)", "z(3)", "z(4)", "revenue", "arbitrage-free"}}
	var csvRows [][]string
	addRow := func(panel, scheme string, z []float64) error {
		pts := make([]pricing.Point, len(z))
		for i := range z {
			pts[i] = pricing.Point{X: m.A[i], Price: z[i]}
		}
		curve, err := pricing.NewCurve(pts)
		if err != nil {
			return err
		}
		free := "yes"
		if err := curve.Certify(); err != nil {
			free = "NO"
		}
		row := []string{panel, scheme,
			fmt.Sprintf("%.4g", z[0]), fmt.Sprintf("%.4g", z[1]),
			fmt.Sprintf("%.4g", z[2]), fmt.Sprintf("%.4g", z[3]),
			fmt.Sprintf("%.4g", revopt.Revenue(m, z)), free}
		t.add(row...)
		csvRows = append(csvRows, row)
		return nil
	}

	// (a) price every version at its valuation.
	if err := addRow("a", "valuations", append([]float64(nil), m.V...)); err != nil {
		return err
	}
	// (b) best constant price.
	optc := revopt.OptC(m)
	if err := addRow("b", "constant (OptC)", optc.Z); err != nil {
		return err
	}
	// (c) linear pricing.
	lin := revopt.Lin(m)
	if err := addRow("c", "linear", lin.Z); err != nil {
		return err
	}
	// (d) the exact optimum (coNP-hard in general).
	exact, err := revopt.MaximizeRevenueExact(m)
	if err != nil {
		return err
	}
	if err := addRow("d", "exact optimum", exact.Z); err != nil {
		return err
	}
	// (e) the MBP dynamic program.
	dp, err := revopt.MaximizeRevenueDPContext(context.Background(), m)
	if err != nil {
		return err
	}
	if err := addRow("e", "MBP (DP)", dp.Z); err != nil {
		return err
	}

	if err := t.write(cfg.Out); err != nil {
		return err
	}

	// Demonstrate the panel-(a) arbitrage concretely.
	pts := make([]pricing.Point, len(m.V))
	for i := range m.V {
		pts[i] = pricing.Point{X: m.A[i], Price: m.V[i]}
	}
	curve, err := pricing.NewCurve(pts)
	if err != nil {
		return err
	}
	if atk := arbitrage.FindAttack(curve, 4, 6); atk != nil {
		fmt.Fprintf(cfg.Out, "\npanel (a) attack: buy %v for %.4g instead of paying %.4g — saves %.4g\n",
			atk.Purchases, atk.Cost, atk.TargetPrice, atk.Savings())
	} else {
		fmt.Fprintln(cfg.Out, "\npanel (a): no attack found (unexpected)")
	}
	fmt.Fprintf(cfg.Out, "MBP approximation quality: %.4g / %.4g = %.3f of the exact optimum (≥ 0.5 guaranteed)\n",
		dp.Revenue, exact.Revenue, dp.Revenue/exact.Revenue)

	if cfg.SVGDir != "" {
		bars := []plot.BarGroup{
			{Label: "valuations", Value: revopt.Revenue(m, m.V)},
			{Label: "OptC", Value: optc.Revenue},
			{Label: "linear", Value: lin.Revenue},
			{Label: "exact", Value: exact.Revenue},
			{Label: "MBP", Value: dp.Revenue},
		}
		svg, err := plot.Bars(bars, plot.Options{Title: "Figure 5 — revenue per pricing scheme"})
		if err != nil {
			return err
		}
		if err := writeSVG(cfg, "fig5_revenue", svg); err != nil {
			return err
		}
	}
	return writeCSV(cfg, "fig5", t.header, csvRows)
}
