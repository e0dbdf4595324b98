package revopt

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/milp"
	"github.com/datamarket/mbp/internal/rng"
)

// figure5Market is the running example of Figure 5: a = 1..4, uniform
// demand 0.25, valuations 100, 150, 280, 350.
func figure5Market(t testing.TB) *curves.Market {
	t.Helper()
	m := &curves.Market{
		A: []float64{1, 2, 3, 4},
		V: []float64{100, 150, 280, 350},
		B: []float64{0.25, 0.25, 0.25, 0.25},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// randomMarket builds a small random market with monotone valuations.
func randomMarket(r *rng.RNG, n int) *curves.Market {
	a := make([]float64, n)
	v := make([]float64, n)
	b := make([]float64, n)
	x, val, bsum := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		x += 0.5 + r.Float64()*2
		val += r.Float64() * 50
		a[i], v[i] = x, val
		b[i] = 0.1 + r.Float64()
		bsum += b[i]
	}
	for i := range b {
		b[i] /= bsum
	}
	return &curves.Market{A: a, V: v, B: b}
}

func TestRevenueAndAffordability(t *testing.T) {
	m := figure5Market(t)
	z := []float64{100, 200, 280, 350} // point 2 priced above valuation
	if got, want := Revenue(m, z), 0.25*(100+280+350); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Revenue = %v, want %v", got, want)
	}
	if got := Affordability(m, z); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Affordability = %v, want 0.75", got)
	}
}

func TestCheckFeasible(t *testing.T) {
	a := []float64{1, 2, 3}
	if err := CheckFeasible(a, []float64{1, 2, 3}); err != nil {
		t.Fatalf("linear rejected: %v", err)
	}
	if err := CheckFeasible(a, []float64{1, 1.5, 1.8}); err != nil {
		t.Fatalf("concave rejected: %v", err)
	}
	if err := CheckFeasible(a, []float64{2, 1, 3}); err == nil {
		t.Fatal("non-monotone accepted")
	}
	if err := CheckFeasible(a, []float64{1, 4, 4}); err == nil {
		t.Fatal("increasing ratio accepted")
	}
	if err := CheckFeasible(a, []float64{-1, 0, 0}); err == nil {
		t.Fatal("negative price accepted")
	}
	if err := CheckFeasible(a, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestRepair(t *testing.T) {
	a := []float64{1, 2, 3}
	z := []float64{10, 40, 30} // ratio jumps at 2, then drops
	q := Repair(a, z)
	if err := CheckFeasible(a, q); err != nil {
		t.Fatalf("repaired vector infeasible: %v", err)
	}
	for i := range q {
		if q[i] > z[i]+1e-12 {
			t.Fatalf("repair raised price %d: %v > %v", i, q[i], z[i])
		}
	}
	// Already-feasible input passes through unchanged.
	good := []float64{5, 8, 9}
	q = Repair(a, good)
	for i := range q {
		if math.Abs(q[i]-good[i]) > 1e-12 {
			t.Fatalf("repair moved a feasible vector: %v", q)
		}
	}
}

func TestRepairPropertyFeasibleAndBelow(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		a := make([]float64, n)
		z := make([]float64, n)
		x := 0.0
		for i := range a {
			x += 0.2 + r.Float64()
			a[i] = x
			z[i] = r.Float64() * 100
		}
		q := Repair(a, z)
		if err := CheckFeasible(a, q); err != nil {
			t.Fatalf("trial %d: %v (a=%v z=%v q=%v)", trial, err, a, z, q)
		}
		for i := range q {
			if q[i] > z[i]+1e-9 {
				t.Fatalf("trial %d: repair raised price", trial)
			}
		}
	}
}

func TestDPFigure5(t *testing.T) {
	// Figure 5(e): the polynomial MBP optimizer on the running example.
	m := figure5Market(t)
	res, err := MaximizeRevenueDPContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(m.A, res.Z); err != nil {
		t.Fatal(err)
	}
	// All four baselines from Figure 5: (a) pricing at valuations has
	// arbitrage; (b) constant and (c) linear lose revenue. The DP must
	// beat the best constant price (0.25·(280·2... OptC below)).
	opt := OptC(m)
	if res.Revenue <= opt.Revenue {
		t.Fatalf("DP revenue %v not above OptC %v", res.Revenue, opt.Revenue)
	}
	// Hand-computed relaxed optimum: sell to everyone at prices
	// (100, 150, 225, 300) — the ratio cap v₂/a₂ = 75 binds points 3
	// and 4 — for revenue 0.25·775 = 193.75.
	if math.Abs(res.Revenue-193.75) > 1e-9 {
		t.Fatalf("DP revenue %v, want 193.75 (z=%v)", res.Revenue, res.Z)
	}
}

func TestDPMatchesBruteForceOnRelaxation(t *testing.T) {
	// Cross-check the DP against brute-force search over the relaxed
	// feasible set, discretized: for tiny n we can grid-search.
	m := &curves.Market{
		A: []float64{1, 2},
		V: []float64{10, 30},
		B: []float64{0.5, 0.5},
	}
	res, err := MaximizeRevenueDPContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	// Options: sell both at (10, 20): rev 15. Sell only 2 at 30: needs
	// z1 ≥ 15 (ratio), above v1 ⇒ rev 15. Sell both at (10, min(30, 20))
	// = (10,20) rev 15. So optimum is 15.
	if math.Abs(res.Revenue-15) > 1e-9 {
		t.Fatalf("DP revenue %v, want 15 (z=%v)", res.Revenue, res.Z)
	}
}

func TestDPSkipBranch(t *testing.T) {
	// First buyer has tiny valuation and negligible demand: serving it
	// caps later ratios and destroys revenue, so the DP must skip it.
	m := &curves.Market{
		A: []float64{1, 2},
		V: []float64{0.01, 100},
		B: []float64{0.01, 0.99},
	}
	res, err := MaximizeRevenueDPContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	// Serving buyer 1: rev ≤ 0.01·0.01 + 0.99·min(100, 0.02) ≈ 0.02.
	// Skipping: z2 = 100, z1 = 50 (>v1): rev = 99.
	if math.Abs(res.Revenue-99) > 1e-9 {
		t.Fatalf("DP revenue %v, want 99 (z=%v)", res.Revenue, res.Z)
	}
	if res.Z[0] <= m.V[0] {
		t.Fatalf("skipped buyer still served: z=%v", res.Z)
	}
}

func TestDPSinglePoint(t *testing.T) {
	m := &curves.Market{A: []float64{5}, V: []float64{42}, B: []float64{1}}
	res, err := MaximizeRevenueDPContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Revenue != 42 || res.Z[0] != 42 {
		t.Fatalf("single point: %+v", res)
	}
}

func TestDPRejectsInvalidMarket(t *testing.T) {
	m := &curves.Market{A: []float64{1, 2}, V: []float64{5, 3}, B: []float64{0.5, 0.5}}
	if _, err := MaximizeRevenueDPContext(context.Background(), m); err == nil {
		t.Fatal("non-monotone valuations accepted")
	}
}

func TestExactFigure5(t *testing.T) {
	// Figure 5(d): the coNP-hard exact optimum on the running example.
	// It must dominate the DP and agree with the independent MILP
	// formulation.
	m := figure5Market(t)
	exact, err := MaximizeRevenueExact(m)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := MaximizeRevenueDPContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Revenue < dp.Revenue-1e-9 {
		t.Fatalf("exact %v below DP %v", exact.Revenue, dp.Revenue)
	}
	if err := VerifyExactFeasibility(m.A, exact.Z); err != nil {
		t.Fatal(err)
	}
	milpRes, err := MaximizeRevenueMILP(m, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(milpRes.Revenue-exact.Revenue) > 1e-6 {
		t.Fatalf("MILP %v != subset-exact %v", milpRes.Revenue, exact.Revenue)
	}
	// Hand-computed exact optimum: serve everyone at z = (100, 150, 250,
	// 300) — z₃ ≤ z₁+z₂ and z₄ ≤ 2·z₂ are the binding covers — for
	// revenue 0.25·800 = 200.
	if math.Abs(exact.Revenue-200) > 1e-6 {
		t.Fatalf("exact revenue %v, want 200", exact.Revenue)
	}
}

// TestProposition3 verifies CSA/2 ≤ CMBP ≤ CSA on random instances.
func TestProposition3FactorTwo(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 15; trial++ {
		m := randomMarket(r, 2+r.Intn(4))
		dp, err := MaximizeRevenueDPContext(context.Background(), m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exact, err := MaximizeRevenueExact(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if dp.Revenue > exact.Revenue+1e-6 {
			t.Fatalf("trial %d: DP %v exceeds exact %v", trial, dp.Revenue, exact.Revenue)
		}
		if dp.Revenue < exact.Revenue/2-1e-6 {
			t.Fatalf("trial %d: DP %v below half of exact %v", trial, dp.Revenue, exact.Revenue)
		}
	}
}

func TestExactAgreesWithMILPRandom(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 10; trial++ {
		m := randomMarket(r, 2+r.Intn(3))
		exact, err := MaximizeRevenueExact(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		milpRes, err := MaximizeRevenueMILP(m, milp.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(exact.Revenue-milpRes.Revenue) > 1e-5*(1+exact.Revenue) {
			t.Fatalf("trial %d: exact %v vs MILP %v", trial, exact.Revenue, milpRes.Revenue)
		}
	}
}

func TestCoverConstraints(t *testing.T) {
	cons, err := coverConstraints([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every constraint must have exactly one +1 coefficient and
	// negative (or zero) elsewhere.
	for _, c := range cons {
		pos := 0
		for _, v := range c.Coeffs {
			if v > 0 {
				if v != 1 {
					t.Fatalf("positive coefficient %v", v)
				}
				pos++
			}
		}
		if pos != 1 || c.RHS != 0 {
			t.Fatalf("malformed cover constraint %+v", c)
		}
	}
	// The monotone single-item covers must be present: z1 ≤ z2 appears
	// as coeffs {1, -1, 0}.
	found := false
	for _, c := range cons {
		if len(c.Coeffs) >= 2 && c.Coeffs[0] == 1 && c.Coeffs[1] == -1 && (len(c.Coeffs) < 3 || c.Coeffs[2] == 0) {
			found = true
		}
	}
	if !found {
		t.Fatal("monotone cover z1 ≤ z2 missing")
	}
}

func TestInterpolateL2Projection(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	// Feasible target: projection must return it unchanged.
	feasible := []float64{1, 1.8, 2.4, 2.8}
	z, err := InterpolateL2(a, feasible)
	if err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if math.Abs(z[i]-feasible[i]) > 1e-6 {
			t.Fatalf("feasible target moved: %v -> %v", feasible, z)
		}
	}
	// Infeasible target: output feasible and no farther than the
	// obvious feasible competitor.
	target := []float64{5, 1, 9, 2}
	z, err = InterpolateL2(a, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(a, z); err != nil {
		t.Fatalf("projection infeasible: %v (z=%v)", err, z)
	}
	objective := func(v []float64) float64 {
		var s float64
		for i := range v {
			d := v[i] - target[i]
			s += d * d
		}
		return s
	}
	for _, comp := range [][]float64{
		Repair(a, target),
		{2, 2.5, 3, 3.5},
		{3, 3.5, 4, 4},
	} {
		if CheckFeasible(a, comp) == nil && objective(comp) < objective(z)-1e-6 {
			t.Fatalf("competitor %v beats projection %v (%v < %v)", comp, z, objective(comp), objective(z))
		}
	}
}

func TestInterpolateL2RandomOptimality(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(6)
		a := make([]float64, n)
		target := make([]float64, n)
		x := 0.0
		for i := range a {
			x += 0.3 + r.Float64()
			a[i] = x
			target[i] = r.Float64() * 20
		}
		z, err := InterpolateL2(a, target)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFeasible(a, z); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		obj := func(v []float64) float64 {
			var s float64
			for i := range v {
				d := v[i] - target[i]
				s += d * d
			}
			return s
		}
		base := obj(z)
		// Random feasible competitors generated by repairing noise
		// around the target must never beat the projection.
		for c := 0; c < 20; c++ {
			cand := make([]float64, n)
			for i := range cand {
				cand[i] = math.Max(0, target[i]+r.Normal()*5)
			}
			cand = Repair(a, cand)
			if obj(cand) < base-1e-6 {
				t.Fatalf("trial %d: competitor beats projection: %v < %v", trial, obj(cand), base)
			}
		}
	}
}

func TestInterpolateL1(t *testing.T) {
	a := []float64{1, 2, 3}
	target := []float64{2, 4, 6} // exactly linear: feasible
	z, err := InterpolateL1(a, target)
	if err != nil {
		t.Fatal(err)
	}
	var dev float64
	for i := range z {
		dev += math.Abs(z[i] - target[i])
	}
	if dev > 1e-6 {
		t.Fatalf("feasible target moved by %v: %v", dev, z)
	}
	// Infeasible target.
	target = []float64{1, 10, 10.5}
	z, err = InterpolateL1(a, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(a, z); err != nil {
		t.Fatalf("L1 output infeasible: %v", err)
	}
	l1 := func(v []float64) float64 {
		var s float64
		for i := range v {
			s += math.Abs(v[i] - target[i])
		}
		return s
	}
	// The L2 projection is feasible; L1 objective of the LP optimum
	// must be no worse.
	z2, err := InterpolateL2(a, target)
	if err != nil {
		t.Fatal(err)
	}
	if l1(z) > l1(z2)+1e-6 {
		t.Fatalf("L1 solver %v worse than L2 point %v", l1(z), l1(z2))
	}
}

func TestInterpolateArgErrors(t *testing.T) {
	if _, err := InterpolateL2(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := InterpolateL2([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := InterpolateL2([]float64{2, 1}, []float64{1, 1}); err == nil {
		t.Fatal("non-increasing grid accepted")
	}
	if _, err := InterpolateL2([]float64{0, 1}, []float64{1, 1}); err == nil {
		t.Fatal("zero grid point accepted")
	}
	if _, err := InterpolateL1([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative target accepted by L1")
	}
}

func TestBaselinesWellBehavedAndOrdered(t *testing.T) {
	m := figure5Market(t)
	dp, err := MaximizeRevenueDPContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range Baselines(m) {
		if err := CheckFeasible(m.A, res.Z); err != nil {
			t.Errorf("%s infeasible: %v", res.Name, err)
		}
		if res.Revenue > dp.Revenue+1e-9 {
			t.Errorf("%s revenue %v exceeds MBP %v", res.Name, res.Revenue, dp.Revenue)
		}
	}
}

func TestMaxCServesOnlyTopBuyers(t *testing.T) {
	m := figure5Market(t)
	res := MaxC(m)
	if math.Abs(res.Affordability-0.25) > 1e-12 {
		t.Fatalf("MaxC affordability %v, want 0.25", res.Affordability)
	}
	if math.Abs(res.Revenue-0.25*350) > 1e-12 {
		t.Fatalf("MaxC revenue %v", res.Revenue)
	}
}

func TestMedCCoversHalfTheMarket(t *testing.T) {
	m := figure5Market(t)
	res := MedC(m)
	if res.Affordability < 0.5 {
		t.Fatalf("MedC affordability %v < 0.5", res.Affordability)
	}
}

func TestOptCIsBestConstant(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		m := randomMarket(r, 2+r.Intn(6))
		opt := OptC(m)
		for _, c := range m.V {
			z := make([]float64, len(m.A))
			for j := range z {
				z[j] = c
			}
			if rev := Revenue(m, z); rev > opt.Revenue+1e-9 {
				t.Fatalf("trial %d: constant %v beats OptC (%v > %v)", trial, c, rev, opt.Revenue)
			}
		}
	}
}

func TestLinSinglePoint(t *testing.T) {
	m := &curves.Market{A: []float64{2}, V: []float64{30}, B: []float64{1}}
	res := Lin(m)
	if res.Revenue != 30 {
		t.Fatalf("Lin single point revenue %v", res.Revenue)
	}
}

// TestDPDominatesBaselinesAcrossShapes is the qualitative claim of
// Figures 7 and 8: MBP's revenue is at least every baseline's on every
// value/demand shape combination.
func TestDPDominatesBaselinesAcrossShapes(t *testing.T) {
	valueShapes := []curves.Shape{curves.Linear, curves.Convex, curves.Concave, curves.Sigmoid}
	demandShapes := []curves.Shape{curves.Uniform, curves.UnimodalMid, curves.BimodalExtremes}
	for _, vs := range valueShapes {
		for _, ds := range demandShapes {
			m, err := curves.Build(vs, ds, 60, 100, 100)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := MaximizeRevenueDPContext(context.Background(), m)
			if err != nil {
				t.Fatalf("%v/%v: %v", vs, ds, err)
			}
			for _, b := range Baselines(m) {
				if b.Revenue > dp.Revenue+1e-9 {
					t.Errorf("%v/%v: %s revenue %v beats MBP %v", vs, ds, b.Name, b.Revenue, dp.Revenue)
				}
			}
		}
	}
}

func BenchmarkDP100(b *testing.B) {
	m, err := curves.Build(curves.Concave, curves.UnimodalMid, 100, 100, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximizeRevenueDPContext(context.Background(), m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExact6(b *testing.B) {
	m, err := curves.Build(curves.Concave, curves.UnimodalMid, 100, 100, 100)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := m.Subsample(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximizeRevenueExact(sub); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRevenueUpperBoundBracketsOptimum: DP ≤ exact ≤ LP bound on random
// instances and on the Figure 5 example.
func TestRevenueUpperBoundBracketsOptimum(t *testing.T) {
	r := rng.New(29)
	check := func(m *curves.Market) {
		t.Helper()
		dp, err := MaximizeRevenueDPContext(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := MaximizeRevenueExact(m)
		if err != nil {
			t.Fatal(err)
		}
		ub, err := RevenueUpperBound(m)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Revenue > exact.Revenue+1e-6 || exact.Revenue > ub+1e-6 {
			t.Fatalf("bracket broken: DP %v, exact %v, UB %v", dp.Revenue, exact.Revenue, ub)
		}
	}
	check(figure5Market(t))
	for trial := 0; trial < 10; trial++ {
		check(randomMarket(r, 2+r.Intn(4)))
	}
}

func TestRevenueUpperBoundZeroValuations(t *testing.T) {
	m := &curves.Market{A: []float64{1, 2}, V: []float64{0, 0}, B: []float64{0.5, 0.5}}
	ub, err := RevenueUpperBound(m)
	if err != nil || ub != 0 {
		t.Fatalf("ub = %v, %v", ub, err)
	}
}

// TestDPOptimalOnRelaxationGridSearch validates Theorem 10's optimality
// claim numerically: on random 3-point markets, no grid point of the
// relaxed feasible set (monotone, ratio-non-increasing, non-negative)
// may earn more revenue than the DP. Grid values include every vⱼ and
// the cap-induced prices the lemmas say optima are built from.
func TestDPOptimalOnRelaxationGridSearch(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 25; trial++ {
		m := randomMarket(r, 3)
		dp, err := MaximizeRevenueDPContext(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		// Candidate prices per point: a fine grid over [0, v_max·1.2].
		var vmax float64
		for _, v := range m.V {
			if v > vmax {
				vmax = v
			}
		}
		if vmax == 0 {
			continue
		}
		const steps = 48
		cand := make([]float64, 0, steps+4)
		for i := 0; i <= steps; i++ {
			cand = append(cand, vmax*1.2*float64(i)/steps)
		}
		cand = append(cand, m.V...)
		best := 0.0
		for _, z1 := range cand {
			for _, z2 := range cand {
				if z2 < z1 || z2/m.A[1] > z1/m.A[0]+1e-12 {
					continue
				}
				for _, z3 := range cand {
					if z3 < z2 || z3/m.A[2] > z2/m.A[1]+1e-12 {
						continue
					}
					if rev := Revenue(m, []float64{z1, z2, z3}); rev > best {
						best = rev
					}
				}
			}
		}
		// The grid cannot beat the DP (up to grid resolution slack).
		if best > dp.Revenue+1e-9 {
			// Allow only tiny excess attributable to the exact vⱼ grid
			// points, which the DP must also achieve.
			t.Fatalf("trial %d: grid search found %v > DP %v (market %+v)", trial, best, dp.Revenue, m)
		}
		// And the DP should essentially reach the best grid value.
		if dp.Revenue < best-vmax*0.1 {
			t.Fatalf("trial %d: DP %v far below grid %v", trial, dp.Revenue, best)
		}
	}
}

// TestDPDegenerateMarkets exercises edge inputs: zero valuations, a
// single point of demand mass, equal grid values of v.
func TestDPDegenerateMarkets(t *testing.T) {
	zero := &curves.Market{A: []float64{1, 2}, V: []float64{0, 0}, B: []float64{0.5, 0.5}}
	res, err := MaximizeRevenueDPContext(context.Background(), zero)
	if err != nil {
		t.Fatal(err)
	}
	if res.Revenue != 0 {
		t.Fatalf("zero-valuation revenue %v", res.Revenue)
	}
	point := &curves.Market{A: []float64{1, 2, 3}, V: []float64{10, 10, 10}, B: []float64{0, 1, 0}}
	res, err = MaximizeRevenueDPContext(context.Background(), point)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Revenue-10) > 1e-9 {
		t.Fatalf("point-mass revenue %v, want 10", res.Revenue)
	}
	if err := CheckFeasible(point.A, res.Z); err != nil {
		t.Fatal(err)
	}
}

// TestProposition3QuickCheck widens the factor-2 property to many more
// random instances via testing/quick at small n where the exact solver
// is fast.
func TestProposition3QuickCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("exact solver sweep")
	}
	meta := rng.New(53)
	f := func(seed uint64) bool {
		r := rng.New(seed ^ meta.Uint64())
		m := randomMarket(r, 2+r.Intn(3))
		dp, err := MaximizeRevenueDPContext(context.Background(), m)
		if err != nil {
			return false
		}
		exact, err := MaximizeRevenueExact(m)
		if err != nil {
			return false
		}
		return dp.Revenue <= exact.Revenue+1e-6 && dp.Revenue >= exact.Revenue/2-1e-6 &&
			CheckFeasible(m.A, dp.Z) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
