package experiments

import (
	"context"
	"fmt"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/plot"
	"github.com/datamarket/mbp/internal/revopt"
)

// revenueComparison prints one Figure 7/8 style panel pair: the price
// curves of MBP and the four baselines on the market, then the revenue
// and affordability bars with gain factors.
func revenueComparison(cfg Config, panel string, m *curves.Market) error {
	mbp, err := revopt.MaximizeRevenueDPContext(context.Background(), m)
	if err != nil {
		return err
	}
	all := append([]*revopt.Result{mbp}, revopt.Baselines(m)...)

	fmt.Fprintf(cfg.Out, "panel %s: value=%v demand=%v, %d price points\n",
		panel, m.ValueShape, m.DemandShape, len(m.A))

	// Price curves at a handful of sample points (the paper's (c)/(d)
	// panels).
	idx := sampleIndices(len(m.A), 6)
	header := []string{"method"}
	for _, i := range idx {
		header = append(header, fmt.Sprintf("p(x=%g)", m.A[i]))
	}
	header = append(header, "revenue", "afford")
	t := &table{header: header}
	var csvRows [][]string
	for _, res := range all {
		row := []string{res.Name}
		for _, i := range idx {
			row = append(row, fmt.Sprintf("%.4g", res.Z[i]))
		}
		row = append(row, fmt.Sprintf("%.4g", res.Revenue), fmt.Sprintf("%.4g", res.Affordability))
		t.add(row...)
		csvRows = append(csvRows, row)
	}
	if err := t.write(cfg.Out); err != nil {
		return err
	}

	// Gain factors (the "33.6x" annotations of the paper's bar charts).
	fmt.Fprintf(cfg.Out, "MBP gains: ")
	for _, res := range all[1:] {
		revGain := gain(mbp.Revenue, res.Revenue)
		affGain := gain(mbp.Affordability, res.Affordability)
		fmt.Fprintf(cfg.Out, "[vs %s: revenue %s, affordability %s] ", res.Name, revGain, affGain)
	}
	fmt.Fprintln(cfg.Out)
	fmt.Fprintln(cfg.Out)

	if err := writeCSV(cfg, "fig_"+panel, header, csvRows); err != nil {
		return err
	}

	// SVG panels: the price curves ((c)/(d) in the paper) and the
	// revenue/affordability bars ((e)–(h)).
	if cfg.SVGDir != "" {
		var priceSeries []plot.Series
		var revBars, affBars []plot.BarGroup
		for _, res := range all {
			priceSeries = append(priceSeries, plot.Series{
				Name: res.Name,
				X:    append([]float64(nil), m.A...),
				Y:    append([]float64(nil), res.Z...),
			})
			revBars = append(revBars, plot.BarGroup{Label: res.Name, Value: res.Revenue})
			affBars = append(affBars, plot.BarGroup{Label: res.Name, Value: res.Affordability})
		}
		svg, err := plot.Line(priceSeries, plot.Options{
			Title: "price curves — " + panel, XLabel: "1/NCP", YLabel: "price",
		})
		if err != nil {
			return err
		}
		if err := writeSVG(cfg, "fig_"+panel+"_prices", svg); err != nil {
			return err
		}
		svg, err = plot.Bars(revBars, plot.Options{Title: "revenue — " + panel})
		if err != nil {
			return err
		}
		if err := writeSVG(cfg, "fig_"+panel+"_revenue", svg); err != nil {
			return err
		}
		svg, err = plot.Bars(affBars, plot.Options{Title: "affordability — " + panel})
		if err != nil {
			return err
		}
		if err := writeSVG(cfg, "fig_"+panel+"_affordability", svg); err != nil {
			return err
		}
	}
	return nil
}

func gain(a, b float64) string {
	if b <= 0 {
		if a <= 0 {
			return "1.0x"
		}
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

func sampleIndices(n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i * (n - 1) / (k - 1)
	}
	return out
}

// Fig7 reproduces the revenue/affordability study with the buyer
// distribution fixed (unimodal mid-accuracy demand) while the value
// curve varies: panel (a/c/e/g) uses a convex value curve, panel
// (b/d/f/h) a concave one. The headline claims: MBP attains the
// highest revenue and affordability in both regimes, with the largest
// gains over single-price baselines on the concave curve.
func Fig7(cfg Config) error {
	cfg = cfg.withDefaults()
	section(cfg.Out, "Figure 7: fixed demand (unimodal), varying value curve")
	for _, vs := range []curves.Shape{curves.Convex, curves.Concave} {
		m, err := curves.Build(vs, curves.UnimodalMid, 100, 100, 100)
		if err != nil {
			return err
		}
		if err := revenueComparison(cfg, "7-"+vs.String(), m); err != nil {
			return err
		}
	}
	return nil
}

// Fig8 fixes the (concave) value curve and varies the buyer
// distribution: unimodal mid-accuracy demand versus bimodal demand
// concentrated at the extremes. MBP adapts its price curve to both and
// dominates the baselines.
func Fig8(cfg Config) error {
	cfg = cfg.withDefaults()
	section(cfg.Out, "Figure 8: fixed value curve (concave), varying demand curve")
	for _, ds := range []curves.Shape{curves.UnimodalMid, curves.BimodalExtremes} {
		m, err := curves.Build(curves.Concave, ds, 100, 100, 100)
		if err != nil {
			return err
		}
		if err := revenueComparison(cfg, "8-"+ds.String(), m); err != nil {
			return err
		}
	}
	return nil
}
