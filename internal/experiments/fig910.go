package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/milp"
	"github.com/datamarket/mbp/internal/plot"
	"github.com/datamarket/mbp/internal/revopt"
)

// runtimeSeries is one method's sweep over the number of price points.
type runtimeSeries struct {
	name    string
	run     func(*curves.Market) (*revopt.Result, error)
	exact   bool // exponential methods are skipped beyond maxExactN
	seconds []float64
	revenue []float64
	afford  []float64
}

// maxExactN caps the exponential optimizers in quick runs; the paper
// sweeps to 10, which Config.MaxPricePoints reproduces.
func runtimeComparison(cfg Config, panel string, base *curves.Market) error {
	methods := []*runtimeSeries{
		{name: "MBP", run: func(m *curves.Market) (*revopt.Result, error) {
			return revopt.MaximizeRevenueDPContext(context.Background(), m)
		}},
		{name: "Lin", run: func(m *curves.Market) (*revopt.Result, error) { return revopt.Lin(m), nil }},
		{name: "MaxC", run: func(m *curves.Market) (*revopt.Result, error) { return revopt.MaxC(m), nil }},
		{name: "MedC", run: func(m *curves.Market) (*revopt.Result, error) { return revopt.MedC(m), nil }},
		{name: "OptC", run: func(m *curves.Market) (*revopt.Result, error) { return revopt.OptC(m), nil }},
		{name: "MILP", exact: true, run: func(m *curves.Market) (*revopt.Result, error) {
			return revopt.MaximizeRevenueMILP(m, milp.Options{})
		}},
	}

	var ns []int
	for n := 2; n <= cfg.MaxPricePoints; n++ {
		ns = append(ns, n)
	}

	for _, n := range ns {
		sub, err := base.Subsample(n)
		if err != nil {
			return err
		}
		for _, me := range methods {
			start := time.Now()
			res, err := me.run(sub)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("%s at n=%d: %w", me.name, n, err)
			}
			me.seconds = append(me.seconds, elapsed)
			me.revenue = append(me.revenue, res.Revenue)
			me.afford = append(me.afford, res.Affordability)
		}
	}

	fmt.Fprintf(cfg.Out, "panel %s: value=%v demand=%v\n", panel, base.ValueShape, base.DemandShape)
	for _, metric := range []struct {
		title string
		pick  func(*runtimeSeries) []float64
		fmt   string
	}{
		{"runtime (seconds, log-scale in the paper)", func(s *runtimeSeries) []float64 { return s.seconds }, "%.3g"},
		{"revenue", func(s *runtimeSeries) []float64 { return s.revenue }, "%.4g"},
		{"affordability ratio", func(s *runtimeSeries) []float64 { return s.afford }, "%.3g"},
	} {
		fmt.Fprintf(cfg.Out, "\n%s:\n", metric.title)
		header := []string{"method"}
		for _, n := range ns {
			header = append(header, fmt.Sprintf("n=%d", n))
		}
		t := &table{header: header}
		var csvRows [][]string
		for _, me := range methods {
			row := []string{me.name}
			for _, v := range metric.pick(me) {
				row = append(row, fmt.Sprintf(metric.fmt, v))
			}
			t.add(row...)
			csvRows = append(csvRows, row)
		}
		if err := t.write(cfg.Out); err != nil {
			return err
		}
		if err := writeCSV(cfg, fmt.Sprintf("fig_%s_%s", panel, csvSlug(metric.title)), header, csvRows); err != nil {
			return err
		}
	}

	// SVG panels mirroring the paper's subplots: log-scale runtime,
	// revenue, and affordability over n.
	if cfg.SVGDir != "" {
		nsF := make([]float64, len(ns))
		for i, n := range ns {
			nsF[i] = float64(n)
		}
		charts := []struct {
			slug, ylabel string
			logY         bool
			pick         func(*runtimeSeries) []float64
		}{
			{"runtime", "seconds (log)", true, func(s *runtimeSeries) []float64 { return s.seconds }},
			{"revenue", "revenue", false, func(s *runtimeSeries) []float64 { return s.revenue }},
			{"affordability", "affordability ratio", false, func(s *runtimeSeries) []float64 { return s.afford }},
		}
		for _, ch := range charts {
			var series []plot.Series
			for _, me := range methods {
				ys := append([]float64(nil), ch.pick(me)...)
				if ch.logY {
					// Clamp zero timings to a visible floor.
					for i, v := range ys {
						if v <= 0 {
							ys[i] = 1e-9
						}
					}
				}
				series = append(series, plot.Series{Name: me.name, X: nsF, Y: ys})
			}
			svg, err := plot.Line(series, plot.Options{
				Title:  ch.slug + " — " + panel,
				XLabel: "number of price points",
				YLabel: ch.ylabel,
				LogY:   ch.logY,
			})
			if err != nil {
				return err
			}
			if err := writeSVG(cfg, "fig_"+panel+"_"+ch.slug, svg); err != nil {
				return err
			}
		}
	}

	// Headline claims: MBP within [OPT/2, OPT] of MILP and orders of
	// magnitude faster at the largest n.
	var mbp, exact *runtimeSeries
	for _, me := range methods {
		switch me.name {
		case "MBP":
			mbp = me
		case "MILP":
			exact = me
		}
	}
	last := len(ns) - 1
	fmt.Fprintf(cfg.Out, "\nAt n=%d: MBP revenue %.4g vs exact %.4g (ratio %.3f, guaranteed ≥ 0.5); MBP %.3gs vs MILP %.3gs (%.0fx faster)\n\n",
		ns[last], mbp.revenue[last], exact.revenue[last], safeRatio(mbp.revenue[last], exact.revenue[last]),
		mbp.seconds[last], exact.seconds[last], safeRatio(exact.seconds[last], mbp.seconds[last]))
	return nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func csvSlug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}

// Fig9 reproduces the runtime study with fixed demand and two value
// curves (convex, concave): runtime, revenue, and affordability of MBP,
// the four baselines, and the exact exponential MILP optimizer, as the
// number of price points grows from 2 to MaxPricePoints.
func Fig9(cfg Config) error {
	cfg = cfg.withDefaults()
	section(cfg.Out, "Figure 9: runtime/revenue/affordability vs #price points (varying value curve)")
	for _, vs := range []curves.Shape{curves.Convex, curves.Concave} {
		base, err := curves.Build(vs, curves.UnimodalMid, 100, 100, 100)
		if err != nil {
			return err
		}
		if err := runtimeComparison(cfg, "9-"+vs.String(), base); err != nil {
			return err
		}
	}
	return nil
}

// Fig10 is the companion sweep with the value curve fixed (concave) and
// the demand curve varying (unimodal vs bimodal).
func Fig10(cfg Config) error {
	cfg = cfg.withDefaults()
	section(cfg.Out, "Figure 10: runtime/revenue/affordability vs #price points (varying demand curve)")
	for _, ds := range []curves.Shape{curves.UnimodalMid, curves.BimodalExtremes} {
		base, err := curves.Build(curves.Concave, ds, 100, 100, 100)
		if err != nil {
			return err
		}
		if err := runtimeComparison(cfg, "10-"+ds.String(), base); err != nil {
			return err
		}
	}
	return nil
}
