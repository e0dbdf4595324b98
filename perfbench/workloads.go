package main

import (
	"fmt"
	"math"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/workload"
)

// workloadSpec is one traffic mix against one deployment shape.
type workloadSpec struct {
	name  string
	blend workload.Blend
	// sellers > 1 splits revenue by the markettest Shapley stakes.
	sellers int
	// durable journals every sale to a write-ahead log at -fsync always.
	durable bool
	// followers > 0 ships the journal to that many in-process followers
	// and acknowledges buys only once a quorum holds them.
	followers int
	// keyed gives every buy an Idempotency-Key: retriers re-send the
	// schedule's key, first attempts get a unique one.
	keyed bool
	// seedSales keyed sales are journaled, untimed, once per run; every
	// set-up then recovers a copy of that journal.
	seedSales int
	// openRate is the open-loop Poisson arrival rate in ops/s: low enough
	// that two connections keep up (see README.md for why not 2/3 of
	// capacity).
	openRate float64
	// capacity sizes the phases: a segment's closed-loop phase is
	// 0.075 × capacity ops per second of --seconds, so a faster program
	// finishes it sooner. Each is below the workload's closed-loop
	// ops/s on a 2-vCPU x86-64 VM at the commit that introduced the
	// benchmark (about 41000, 6000 and 1300), so at --seconds 20 a
	// segment's closed-loop phase takes about a second. Short segments
	// also bound how far quorum's journal grows, which Store.ReadFrom
	// rescans on every shipment.
	capacity float64
	// segments is how many fresh stacks an untraced run drives, one
	// open-loop and one closed-loop phase each.
	segments int
	// setupReps is how many extra times a run stands the stack up only
	// to time set-up; setup_s is the median over these and the segments'
	// stand-ups.
	setupReps int
}

var workloads = []*workloadSpec{
	{
		name:      "browse-mem",
		blend:     workload.Blend{Browser: 0.70, Point: 0.20, Budget: 0.05, Prober: 0.05},
		sellers:   1,
		openRate:  8000,
		capacity:  33000,
		segments:  8,
		setupReps: 41,
	},
	{
		name:      "checkout-wal",
		blend:     workload.Blend{Browser: 0.05, Point: 0.45, Budget: 0.30, Retrier: 0.20},
		sellers:   3,
		durable:   true,
		keyed:     true,
		seedSales: 8000,
		openRate:  800,
		capacity:  3300,
		segments:  16,
		setupReps: 2,
	},
	{
		// A browse-heavy mix, not checkout-wal's: with buys the bulk of
		// the ops, both connections sit parked on the shipper's 10 ms poll,
		// the vCPUs idle, and quote latency and CPU per op measure how fast
		// the VM wakes an idle vCPU (spreads of 0.2-0.37 across seeds).
		// With most sessions browsing, one connection is usually busy while
		// the other waits for its ack.
		name:      "checkout-quorum",
		blend:     workload.Blend{Browser: 0.70, Point: 0.20, Budget: 0.05, Retrier: 0.05},
		sellers:   3,
		durable:   true,
		followers: 2,
		keyed:     true,
		openRate:  60,
		capacity:  670,
		segments:  16,
		setupReps: 8,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scenario is the workload's population: the steady scenario's value
// and demand families under this workload's archetype blend.
func (w *workloadSpec) scenario() workload.Scenario {
	return workload.Scenario{
		Name:        w.name,
		Arrival:     workload.Steady,
		Blend:       w.blend,
		ValueShape:  curves.Concave,
		DemandShape: curves.UnimodalMid,
		ValueScale:  1.3,
	}
}

// issuedOps counts the ops a schedule will send when no op fails: a
// buy gated on its quote is sent only when the menu price is within
// the buyer's valuation.
func issuedOps(s *workload.Schedule) int {
	n := 0
	for i := range s.Buyers {
		p := &s.Buyers[i]
		for _, op := range p.Ops {
			if op.IfAffordable && s.Menu[p.J].Price > p.Valuation+1e-9 {
				continue
			}
			n++
		}
	}
	return n
}

// scheduleFor builds a schedule of about ops issued ops. The buyer
// count comes from a fixed calibration schedule, so a phase's size
// depends on the workload and --seconds only, never on the seed.
func (w *workloadSpec) scheduleFor(menu []pricing.PriceError, ops int, seed uint64) (*workload.Schedule, error) {
	const calib = 4000
	cs, err := workload.BuildSchedule(w.scenario(), menu, calib, 0)
	if err != nil {
		return nil, err
	}
	perBuyer := float64(issuedOps(cs)) / calib
	n := int(math.Ceil(float64(ops) / perBuyer))
	if n < 1 {
		n = 1
	}
	return workload.BuildSchedule(w.scenario(), menu, n, seed)
}
