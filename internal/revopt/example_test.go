package revopt_test

import (
	"context"
	"fmt"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/revopt"
)

// ExampleMaximizeRevenueDPContext runs the Theorem 10 dynamic program
// on the paper's Figure 5 instance and prints the prices it assigns.
func ExampleMaximizeRevenueDPContext() {
	m := &curves.Market{
		A: []float64{1, 2, 3, 4},
		V: []float64{100, 150, 280, 350},
		B: []float64{0.25, 0.25, 0.25, 0.25},
	}
	res, _ := revopt.MaximizeRevenueDPContext(context.Background(), m)
	fmt.Printf("prices %v revenue %v\n", res.Z, res.Revenue)
	// Output:
	// prices [100 150 225 300] revenue 193.75
}

// ExampleMaximizeRevenueExact shows the coNP-hard exact optimum on the
// same instance: the cover constraints admit a slightly richer curve.
func ExampleMaximizeRevenueExact() {
	m := &curves.Market{
		A: []float64{1, 2, 3, 4},
		V: []float64{100, 150, 280, 350},
		B: []float64{0.25, 0.25, 0.25, 0.25},
	}
	res, _ := revopt.MaximizeRevenueExact(m)
	fmt.Printf("revenue %.0f\n", res.Revenue)
	// Output:
	// revenue 200
}

// ExampleRepair lowers an infeasible price vector onto the
// arbitrage-free cone without ever raising a price.
func ExampleRepair() {
	a := []float64{1, 2, 3}
	fmt.Println(revopt.Repair(a, []float64{10, 40, 30}))
	// Output:
	// [10 20 30]
}

// ExampleInterpolateL2 projects target prices onto the feasible cone.
func ExampleInterpolateL2() {
	a := []float64{1, 2}
	z, _ := revopt.InterpolateL2(a, []float64{10, 20}) // already feasible
	fmt.Printf("%.4g %.4g\n", z[0], z[1])
	// Output:
	// 10 20
}
