package revopt

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/trace"
)

// DP metrics: the paper's Section 6 runtime study compares this solver
// against the exact MILP offline; these surface the same latency (and
// the instance size driving it) continuously on a live broker.
var (
	metDPSolves  = obs.Default.Counter("revopt.dp_solves_total")
	metDPSeconds = obs.Default.Histogram("revopt.dp_solve_seconds", obs.LatencyBuckets())
	metDPGrid    = obs.Default.Gauge("revopt.dp_grid_points")
)

// MaximizeRevenueDPContext solves the relaxed revenue-maximization
// program (4) exactly with the O(n²) dynamic program of Theorem 10,
// returning the prices and revenue of the paper's MBP method.
//
// The DP state is (k, Δ): the optimal revenue from points k..n−1 given
// that every remaining ratio zⱼ/aⱼ is capped at Δ. Δ only ever takes
// the n+1 values {v₁/a₁, …, vₙ/aₙ, +∞} (the recurrences of Lemmas
// 12–13), so the table is n×(n+1). Its revenue is within a factor 2 of
// the coNP-hard exact optimum (Proposition 3) and its prices are
// feasible for the weakened constraints, hence arbitrage-free
// (Lemma 8).
//
// The solve is recorded as a "revopt.dp_solve" span on the caller's
// trace, so a live republish shows up inside the request that
// triggered it.
func MaximizeRevenueDPContext(ctx context.Context, m *curves.Market) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := len(m.A)
	_, span := trace.Start(ctx, "revopt.dp_solve", "n", strconv.Itoa(n))
	defer span.End()
	defer metDPSeconds.ObserveDuration(time.Now())
	metDPSolves.Inc()
	metDPGrid.Set(float64(n))
	a, v, b := m.A, m.V, m.B

	// capVal[c] for c in 0..n−1 is vⱼ/aⱼ; capVal[n] = +∞.
	capVal := make([]float64, n+1)
	for j := 0; j < n; j++ {
		capVal[j] = v[j] / a[j]
	}
	capVal[n] = math.Inf(1)

	// memo[k][c] is OPT(k, capVal[c]); choice[k][c] records the decision:
	// 0 = sell at cap·aₖ (Lemma 12), 1 = sell at vₖ and tighten the cap
	// (Lemma 13 option A), 2 = skip buyer k (option B).
	memo := make([][]float64, n)
	choice := make([][]int8, n)
	for k := range memo {
		memo[k] = make([]float64, n+1)
		choice[k] = make([]int8, n+1)
		for c := range memo[k] {
			memo[k][c] = math.NaN()
		}
	}

	// The memoized recursion fills an n×(n+1) table; on the large grids
	// of the Section 6 runtime study that is the longest loop a request
	// can trigger (a live republish). Poll ctx every stride states so a
	// canceled request stops paying for the solve promptly; once the
	// flag trips the recursion unwinds without touching more state.
	const cancelCheckStride = 1024
	var ops int
	var canceled bool
	var solve func(k, c int) float64
	solve = func(k, c int) float64 {
		if canceled {
			return 0
		}
		if ops++; ops%cancelCheckStride == 0 && ctx.Err() != nil {
			canceled = true
			return 0
		}
		if !math.IsNaN(memo[k][c]) {
			return memo[k][c]
		}
		cap := capVal[c]
		var best float64
		var ch int8
		if k == n-1 {
			// Base case: sell at the highest price allowed.
			if cap*a[k] <= v[k] {
				best, ch = b[k]*cap*a[k], 0
			} else {
				best, ch = b[k]*v[k], 1
			}
		} else if cap*a[k] <= v[k] {
			// Lemma 12: the cap binds below the valuation — charge the
			// cap; buyer k still buys.
			best = b[k]*cap*a[k] + solve(k+1, c)
			ch = 0
		} else {
			// Lemma 13: either sell to k at vₖ (tightening the cap for
			// the remaining points to vₖ/aₖ) or skip k entirely.
			sell := b[k]*v[k] + solve(k+1, k)
			skip := solve(k+1, c)
			if sell >= skip {
				best, ch = sell, 1
			} else {
				best, ch = skip, 2
			}
		}
		memo[k][c] = best
		choice[k][c] = ch
		return best
	}
	revenue := solve(0, n)
	if canceled || ctx.Err() != nil {
		span.SetAttr("canceled", "true")
		return nil, ctx.Err()
	}

	// Reconstruct prices. Walk forward recording each point's decision
	// and cap, then fill skipped points backward with the maximal
	// feasible price zₖ = zₖ₊₁·aₖ/aₖ₊₁ (Lemma 13 option B).
	decisions := make([]int8, n)
	caps := make([]float64, n)
	c := n
	for k := 0; k < n; k++ {
		decisions[k] = choice[k][c]
		caps[k] = capVal[c]
		if decisions[k] == 1 {
			c = k
		}
	}
	z := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		switch decisions[k] {
		case 0:
			z[k] = caps[k] * a[k]
		case 1:
			z[k] = v[k]
		default: // skipped
			if k == n-1 {
				// The base case never skips, but guard anyway.
				z[k] = v[k]
			} else {
				z[k] = z[k+1] * a[k] / a[k+1]
			}
		}
	}

	res := newResult("MBP", m, z)
	if math.Abs(res.Revenue-revenue) > 1e-6*(1+revenue) {
		return nil, fmt.Errorf("revopt: DP revenue %v disagrees with reconstructed prices' revenue %v", revenue, res.Revenue)
	}
	if err := CheckFeasible(a, z); err != nil {
		return nil, fmt.Errorf("revopt: DP produced infeasible prices: %w", err)
	}
	return res, nil
}
