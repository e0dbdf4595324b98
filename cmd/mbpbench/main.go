// Command mbpbench regenerates the paper's evaluation artifacts (Table 3
// and Figures 5–10) and the extension experiments from scratch.
//
// Usage:
//
//	mbpbench -experiment all
//	mbpbench -experiment fig6 -scale 0.01 -samples 2000
//	mbpbench -experiment fig9 -maxn 10 -csv results/
//
// Each experiment prints the numeric series behind the corresponding
// plot; -csv additionally writes one CSV per panel.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/datamarket/mbp/internal/experiments"
)

func main() {
	var (
		name    = flag.String("experiment", "all", "experiment to run: all, table3, fig5, fig6, fig7, fig8, fig9, fig10, buyers, privacy, interp")
		scale   = flag.Float64("scale", 0.002, "fraction of the full Table 3 dataset sizes to generate")
		samples = flag.Int("samples", 400, "Monte-Carlo draws per NCP grid point (paper: 2000)")
		workers = flag.Int("workers", 1, "Monte-Carlo worker goroutines for fig6 (1 = serial)")
		seed    = flag.Uint64("seed", 1, "random seed")
		csvDir  = flag.String("csv", "", "directory for per-panel CSV output (optional)")
		svgDir  = flag.String("svg", "", "directory for rendered SVG charts (optional)")
		maxN    = flag.Int("maxn", 10, "largest number of price points in the Figure 9/10 sweeps")
	)
	flag.Parse()

	cfg := experiments.Config{
		Out:            os.Stdout,
		CSVDir:         *csvDir,
		SVGDir:         *svgDir,
		Scale:          *scale,
		Samples:        *samples,
		Seed:           *seed,
		MaxPricePoints: *maxN,
		Workers:        *workers,
	}

	if *name == "all" {
		for _, e := range experiments.All() {
			fmt.Printf("### %s — %s\n", e.Name, e.Title)
			if err := e.Run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "mbpbench: %s: %v\n", e.Name, err)
				os.Exit(1)
			}
		}
		return
	}
	e, err := experiments.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbpbench:", err)
		os.Exit(2)
	}
	if err := e.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mbpbench: %s: %v\n", e.Name, err)
		os.Exit(1)
	}
}
