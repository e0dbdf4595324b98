package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/workload"
)

// stallClient answers every op at once, except that the first quote
// takes stall.
type stallClient struct {
	stall time.Duration
	calls int
}

func (c *stallClient) Menu(context.Context) ([]pricing.PriceError, error) { return nil, nil }

func (c *stallClient) Quote(context.Context, float64) (float64, float64, error) {
	c.calls++
	if c.calls == 1 {
		time.Sleep(c.stall)
	}
	return 1, 0, nil
}

func (c *stallClient) BuyAtPoint(context.Context, float64, string) (workload.BuyResult, error) {
	return workload.BuyResult{}, errors.New("unexpected buy")
}

func (c *stallClient) BuyWithPriceBudget(context.Context, float64, string) (workload.BuyResult, error) {
	return workload.BuyResult{}, errors.New("unexpected buy")
}

func (c *stallClient) Ledger(context.Context) (workload.LedgerSummary, error) {
	return workload.LedgerSummary{}, nil
}

// TestDueTimeChargesQueuedOps is the open-loop rule: ops are timed from
// when they were due, so one stalled op charges its wait to every op
// queued behind it instead of hiding it (coordinated omission).
func TestDueTimeChargesQueuedOps(t *testing.T) {
	const stall = 30 * time.Millisecond
	w, err := newWaker()
	if err != nil {
		t.Fatal(err)
	}
	p := &pacer{
		due:    []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond},
		wakers: make(chan *waker, 1),
	}
	p.wakers <- w
	defer p.close()
	rec := &recorder{}
	c := &timedClient{inner: &stallClient{stall: stall}, pace: p, rec: rec}
	p.begin()
	for i := 0; i < 4; i++ {
		if _, _, err := c.Quote(context.Background(), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	lat := rec.lat[classQuote]
	if len(lat) != 4 {
		t.Fatalf("%d samples, want 4", len(lat))
	}
	for i, us := range lat {
		// Op i was due at i+1 ms and could not start before the stall,
		// which began at 1 ms, ended.
		floor := float64(stall-time.Duration(i)*time.Millisecond) / float64(time.Microsecond)
		if us < floor {
			t.Errorf("op %d timed at %.0fµs, want at least %.0fµs: its wait behind the stall was dropped", i, us, floor)
		}
	}
	if p.backlogged != 3 {
		t.Errorf("%d slots claimed after they were due, want the 3 queued behind the stall", p.backlogged)
	}
}

// TestPacerWaitsForDueTime: an op due in the future is not released
// early, and its lateness is the generator's own, recorded apart.
func TestPacerWaitsForDueTime(t *testing.T) {
	w, err := newWaker()
	if err != nil {
		t.Fatal(err)
	}
	p := &pacer{due: []time.Duration{5 * time.Millisecond}, wakers: make(chan *waker, 1)}
	p.wakers <- w
	defer p.close()
	p.begin()
	due := p.wait()
	if now := time.Now(); now.Before(due) {
		t.Fatalf("released %v before the slot was due", due.Sub(now))
	}
	if due.Sub(p.start) != 5*time.Millisecond {
		t.Fatalf("due %v after start, want 5ms", due.Sub(p.start))
	}
	if len(p.late) != 1 || p.backlogged != 0 {
		t.Fatalf("late=%v backlogged=%d, want one generator-lateness sample", p.late, p.backlogged)
	}
}

// TestPacerSchedule: the same seed gives the same Poisson schedule at
// about the requested rate.
func TestPacerSchedule(t *testing.T) {
	a, err := newPacer(1000, 20000, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	b, err := newPacer(1000, 20000, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for i := range a.due {
		if a.due[i] != b.due[i] {
			t.Fatalf("slot %d differs across identical seeds: %v vs %v", i, a.due[i], b.due[i])
		}
	}
	if span := a.due[len(a.due)-1]; span < 19*time.Second || span > 21*time.Second {
		t.Fatalf("20000 arrivals at 1000/s span %v, want about 20s", span)
	}
}
