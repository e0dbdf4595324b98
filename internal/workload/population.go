package workload

// Population synthesis and the deterministic op schedule.
//
// The schedule is built from the broker's *published menu*: the
// population's grid is the menu's own inverse-NCP points, so every
// sampled buyer wants a version the broker actually sells, and the
// revenue DP's predicted optimum (report.go) is computed over exactly
// the versions on offer. Buyer i derives everything — archetype, the
// version it wants, its valuation, arrival time, op plan — from
// rng.Stream(seed, i+1), making the whole schedule a pure function of
// (scenario, menu, buyers, seed).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/revopt"
	"github.com/datamarket/mbp/internal/rng"
)

// OpKind enumerates the operations a buyer can issue.
type OpKind int

const (
	// OpQuote previews a version's price (GET /quote).
	OpQuote OpKind = iota
	// OpBuyPoint purchases at an explicit δ (option 1).
	OpBuyPoint
	// OpBuyBudget purchases under a price budget (option 3).
	OpBuyBudget
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpQuote:
		return "quote"
	case OpBuyPoint:
		return "buy"
	case OpBuyBudget:
		return "buy-budget"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one planned operation.
type Op struct {
	// Kind selects the operation.
	Kind OpKind `json:"kind"`
	// Delta is the NCP for quotes and point buys.
	Delta float64 `json:"delta,omitempty"`
	// Budget is the price budget for OpBuyBudget.
	Budget float64 `json:"budget,omitempty"`
	// Key is the Idempotency-Key ("" = none). Retriers repeat an op
	// with the same key; the repeat must replay, not re-charge.
	Key string `json:"key,omitempty"`
	// IfAffordable gates a buy on the preceding quote of the same δ
	// having come in at or under the buyer's valuation — the paper's
	// buyer model: walk away if the version you want costs more than
	// it's worth to you.
	IfAffordable bool `json:"ifAffordable,omitempty"`
}

// BuyerPlan is one synthesized buyer: identity, wants, and op plan.
type BuyerPlan struct {
	// ID is the buyer index, and 1+ID its rng stream id.
	ID int `json:"id"`
	// Archetype is the behavior class.
	Archetype Archetype `json:"archetype"`
	// J indexes the menu row the buyer wants (sampled from demand).
	J int `json:"j"`
	// Valuation is what that version is worth to this buyer.
	Valuation float64 `json:"valuation"`
	// Arrival is the normalized arrival time in [0, 1).
	Arrival float64 `json:"arrival"`
	// Phase is 0 for the pre-shift population, 1 for post-shift; always
	// 0 in scenarios without a Shift.
	Phase int `json:"phase,omitempty"`
	// Tail marks post-shift buyers in the last half of the post-shift
	// span — the window the recovery ratio is measured over, after the
	// repricer has had time to adapt.
	Tail bool `json:"tail,omitempty"`
	// Ops is the session, executed in order on one connection.
	Ops []Op `json:"ops"`
}

// Schedule is a fully materialized run: the population, its market
// model, and the revenue prediction baseline.
type Schedule struct {
	// Scenario is the generating spec.
	Scenario Scenario
	// Seed is the run seed.
	Seed uint64
	// Menu is the broker's published price–error curve the population
	// was synthesized against, cheapest row first.
	Menu []pricing.PriceError
	// Market is the synthesized population market over the menu grid
	// (A = the menu's 1/δ points ascending).
	Market *curves.Market
	// OptRevenuePerBuyer is the revenue DP's optimum on Market: the
	// expected revenue per purchase-intent buyer under the best
	// arbitrage-free price assignment for THIS population. Realized
	// revenue divided by (OptRevenuePerBuyer × intent count) is the
	// report's revenue ratio.
	OptRevenuePerBuyer float64
	// Buyers holds the plans in arrival order.
	Buyers []BuyerPlan
	// Intents counts buyers with purchase intent (all but probers).
	Intents int

	// PostMarket and PostOptRevenuePerBuyer are the post-shift
	// population and its own DP optimum, set only when the scenario has
	// a Shift. The post-shift optimum is the reference the demand-shift
	// recovery ratio is measured against.
	PostMarket             *curves.Market
	PostOptRevenuePerBuyer float64
	// PreIntents/PostIntents partition Intents by phase; TailIntents
	// counts the post-shift intents inside the recovery tail.
	PreIntents, PostIntents, TailIntents int
}

// browsePool caps how many distinct menu rows a browser samples quotes
// from; sessions draw 1–3 extra quotes.
const maxBrowseQuotes = 3

// BuildSchedule synthesizes a population of n buyers for the scenario
// against the given published menu. Deterministic in its arguments:
// buyer i draws from rng.Stream(seed, i+1) only, and ties in arrival
// order break by buyer ID.
func BuildSchedule(sc Scenario, menu []pricing.PriceError, n int, seed uint64) (*Schedule, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive buyer count %d", n)
	}
	if len(menu) < 2 {
		return nil, fmt.Errorf("workload: menu has %d rows, need at least 2", len(menu))
	}

	// The population grid is the menu's x = 1/δ axis, ascending — menu
	// rows come cheapest (largest δ, smallest x) first.
	grid := make([]float64, len(menu))
	maxPrice := 0.0
	for i, row := range menu {
		grid[i] = row.XInv
		if row.Price > maxPrice {
			maxPrice = row.Price
		}
	}
	if maxPrice <= 0 {
		return nil, fmt.Errorf("workload: menu prices are all zero")
	}
	pop, err := curves.BuildOn(sc.ValueShape, sc.DemandShape, grid, sc.ValueScale*maxPrice)
	if err != nil {
		return nil, fmt.Errorf("workload: synthesizing population: %w", err)
	}
	opt, err := revopt.MaximizeRevenueDPContext(context.Background(), pop)
	if err != nil {
		return nil, fmt.Errorf("workload: predicting optimal revenue: %w", err)
	}
	arrivals, err := newArrivalSampler(sc.Arrival)
	if err != nil {
		return nil, err
	}
	cum := pop.CumDemand()

	sched := &Schedule{
		Scenario:           sc,
		Seed:               seed,
		Menu:               append([]pricing.PriceError(nil), menu...),
		Market:             pop,
		OptRevenuePerBuyer: opt.Revenue,
		Buyers:             make([]BuyerPlan, n),
	}

	// A shifted scenario synthesizes a second population on the same
	// grid; buyers arriving at or after Shift.At sample from it, and
	// its own DP optimum becomes the recovery reference.
	var post *curves.Market
	var postCum []float64
	var tailStart float64
	if sh := sc.Shift; sh != nil {
		post, err = curves.BuildOn(sh.ValueShape, sh.DemandShape, grid, sh.ValueScale*maxPrice)
		if err != nil {
			return nil, fmt.Errorf("workload: synthesizing post-shift population: %w", err)
		}
		postOpt, err := revopt.MaximizeRevenueDPContext(context.Background(), post)
		if err != nil {
			return nil, fmt.Errorf("workload: predicting post-shift optimal revenue: %w", err)
		}
		postCum = post.CumDemand()
		sched.PostMarket = post
		sched.PostOptRevenuePerBuyer = postOpt.Revenue
		tailStart = sh.At + (1-sh.At)/2
	}
	// The largest x on the menu bounds the prober's subadditivity
	// probe: x₁+x₂ must stay on the offered curve.
	maxX := grid[len(grid)-1]
	for i := 0; i < n; i++ {
		// Stream ids start at 1: id 0 would collide with rng.New(seed)
		// derivations elsewhere.
		rs := rng.Stream(seed, uint64(i)+1)
		p := BuyerPlan{
			ID:        i,
			Archetype: sc.Blend.pick(rs.Float64()),
			Arrival:   arrivals.At(rs.Float64()),
		}
		wantCum, wantPop := cum, pop
		if post != nil && p.Arrival >= sc.Shift.At {
			p.Phase = 1
			p.Tail = p.Arrival >= tailStart
			wantCum, wantPop = postCum, post
		}
		p.J = curves.SampleIndex(wantCum, rs.Float64())
		p.Valuation = wantPop.V[p.J]
		want := menu[p.J]
		switch p.Archetype {
		case Browser:
			// Window-shop a few random rows, then decide on the wanted
			// one like a point buyer.
			for q := 1 + rs.Intn(maxBrowseQuotes); q > 0; q-- {
				p.Ops = append(p.Ops, Op{Kind: OpQuote, Delta: menu[rs.Intn(len(menu))].Delta})
			}
			p.Ops = append(p.Ops,
				Op{Kind: OpQuote, Delta: want.Delta},
				Op{Kind: OpBuyPoint, Delta: want.Delta, IfAffordable: true},
			)
		case PointBuyer:
			p.Ops = append(p.Ops,
				Op{Kind: OpQuote, Delta: want.Delta},
				Op{Kind: OpBuyPoint, Delta: want.Delta, IfAffordable: true},
			)
		case BudgetBuyer:
			p.Ops = append(p.Ops, Op{Kind: OpBuyBudget, Budget: p.Valuation})
		case Retrier:
			key := fmt.Sprintf("wl-%d-%d", seed, i)
			buy := Op{Kind: OpBuyPoint, Delta: want.Delta, Key: key, IfAffordable: true}
			p.Ops = append(p.Ops, Op{Kind: OpQuote, Delta: want.Delta}, buy)
			for r := 1 + rs.Intn(2); r > 0; r-- {
				p.Ops = append(p.Ops, buy)
			}
		case Prober:
			// Two menu rows plus, when offered, their x-sum: executor
			// checks price monotonicity in x and subadditivity
			// p(x₁+x₂) ≤ p(x₁)+p(x₂).
			a := rs.Intn(len(menu))
			b := rs.Intn(len(menu))
			p.Ops = append(p.Ops,
				Op{Kind: OpQuote, Delta: menu[a].Delta},
				Op{Kind: OpQuote, Delta: menu[b].Delta},
			)
			if sum := menu[a].XInv + menu[b].XInv; sum <= maxX {
				p.Ops = append(p.Ops, Op{Kind: OpQuote, Delta: 1 / sum})
			}
		}
		if p.Archetype != Prober {
			sched.Intents++
			if p.Phase == 1 {
				sched.PostIntents++
				if p.Tail {
					sched.TailIntents++
				}
			} else {
				sched.PreIntents++
			}
		}
		sched.Buyers[i] = p
	}
	sort.SliceStable(sched.Buyers, func(a, b int) bool {
		if sched.Buyers[a].Arrival != sched.Buyers[b].Arrival {
			return sched.Buyers[a].Arrival < sched.Buyers[b].Arrival
		}
		return sched.Buyers[a].ID < sched.Buyers[b].ID
	})
	return sched, nil
}

// Encode writes the op schedule as JSON lines, one buyer per line in
// arrival order. Two runs with the same (scenario, menu, buyers, seed)
// produce byte-identical output — the determinism contract the CI
// race-mode test pins down.
func (s *Schedule) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range s.Buyers {
		if err := enc.Encode(&s.Buyers[i]); err != nil {
			return err
		}
	}
	return nil
}
