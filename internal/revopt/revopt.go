// Package revopt implements the revenue-optimization framework of
// Section 5: assigning arbitrage-free prices to the n sampled market
// points (aⱼ, vⱼ, bⱼ) so as to maximize the seller's revenue.
//
// The exact problem (program (2) in the paper) is coNP-hard
// (Theorem 7 / Corollary 7.1). The package provides:
//
//   - MaximizeRevenueDPContext — the paper's polynomial MBP algorithm: the
//     O(n²) dynamic program of Theorem 10 over the weakened-subadditivity
//     relaxation (program (4)), with the factor-2 guarantee of
//     Proposition 3.
//   - MaximizeRevenueExact and MaximizeRevenueMILP — two independent
//     exact exponential optimizers (the "MILP" baseline of Figures 9–10):
//     subset enumeration with per-subset LPs, and a big-M mixed-integer
//     formulation solved by branch and bound. Both constrain prices by
//     the complete set of minimal integer cover constraints, which
//     characterize exact interpolability by a monotone subadditive
//     function (the µ-function argument in the proof of Theorem 7).
//   - InterpolateL2 / InterpolateL1 — the price-interpolation objectives
//     T²pi (Dykstra alternating projections with weighted PAVA) and
//     T∞pi (linear programming).
//   - The four pricing baselines of Section 6.2: Lin, MaxC, MedC, OptC.
package revopt

import (
	"fmt"
	"math"

	"github.com/datamarket/mbp/internal/curves"
)

// saleTol absorbs floating-point slack when deciding whether a price is
// within a buyer's valuation.
const saleTol = 1e-9

// Result is a priced market: one price per grid point plus the derived
// seller metrics.
type Result struct {
	// Name identifies the pricing method ("MBP", "Lin", ...).
	Name string
	// Z holds the price assigned to each grid point aⱼ.
	Z []float64
	// Revenue is Σ bⱼ·zⱼ·1[zⱼ ≤ vⱼ].
	Revenue float64
	// Affordability is Σ bⱼ·1[zⱼ ≤ vⱼ]: the fraction of buyers who can
	// afford the version they want (Section 6.2).
	Affordability float64
}

// Revenue computes Σ bⱼ·zⱼ·1[zⱼ ≤ vⱼ] for prices z on market m.
func Revenue(m *curves.Market, z []float64) float64 {
	var total float64
	for j := range z {
		if z[j] <= m.V[j]+saleTol {
			total += m.B[j] * z[j]
		}
	}
	return total
}

// Affordability computes Σ bⱼ·1[zⱼ ≤ vⱼ] for prices z on market m.
func Affordability(m *curves.Market, z []float64) float64 {
	var total float64
	for j := range z {
		if z[j] <= m.V[j]+saleTol {
			total += m.B[j]
		}
	}
	return total
}

// newResult bundles prices with their metrics.
func newResult(name string, m *curves.Market, z []float64) *Result {
	return &Result{
		Name:          name,
		Z:             z,
		Revenue:       Revenue(m, z),
		Affordability: Affordability(m, z),
	}
}

// CheckFeasible verifies the weakened well-behavedness constraints of
// program (4) on a price vector: non-negativity, monotonicity in a, and
// non-increasing price/a ratio. By Lemma 8 these imply the prices admit
// an arbitrage-free extension (the Proposition 1 piecewise-linear one).
func CheckFeasible(a, z []float64) error {
	if len(a) != len(z) {
		return fmt.Errorf("revopt: %d grid points but %d prices", len(a), len(z))
	}
	const tol = 1e-7
	prevRatio := math.Inf(1)
	for j := range z {
		if z[j] < -tol {
			return fmt.Errorf("revopt: negative price z[%d] = %v", j, z[j])
		}
		if j > 0 && z[j] < z[j-1]-tol*(1+math.Abs(z[j-1])) {
			return fmt.Errorf("revopt: prices not monotone at %d: %v < %v", j, z[j], z[j-1])
		}
		ratio := z[j] / a[j]
		if ratio > prevRatio+tol*(1+prevRatio) {
			return fmt.Errorf("revopt: price/a ratio increases at %d: %v > %v", j, ratio, prevRatio)
		}
		if ratio < prevRatio {
			prevRatio = ratio
		}
	}
	return nil
}

// Repair returns the greatest vector q ≤ z that satisfies the weakened
// well-behavedness constraints (Lemma 9's construction followed by a
// monotone backward pass). It is used to make heuristic price vectors
// — such as the Lin baseline's chord — arbitrage-free by only lowering
// prices.
func Repair(a, z []float64) []float64 {
	n := len(z)
	q := make([]float64, n)
	// Pass 1 (Lemma 9): enforce non-increasing ratio by prefix-min.
	minRatio := math.Inf(1)
	for j := 0; j < n; j++ {
		r := math.Max(0, z[j]) / a[j]
		if r < minRatio {
			minRatio = r
		}
		q[j] = a[j] * minRatio
	}
	// Pass 2: enforce monotonicity by a backward min; this preserves
	// the ratio property (lowering zⱼ to zⱼ₊₁ keeps zⱼ/aⱼ ≥ zⱼ₊₁/aⱼ₊₁
	// because aⱼ < aⱼ₊₁).
	for j := n - 2; j >= 0; j-- {
		if q[j] > q[j+1] {
			q[j] = q[j+1]
		}
	}
	return q
}
