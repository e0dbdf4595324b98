package market

import (
	"context"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/ml"
)

// TestLedgerViewCached: repeated reads between recordings reuse the
// cached Seq-ordered snapshot (no re-merge, no re-sort); a new row
// invalidates it.
func TestLedgerViewCached(t *testing.T) {
	var l shardedLedger
	for i := 1; i <= 3; i++ {
		seq := l.nextSeq()
		l.file(Transaction{Seq: int(seq), Price: float64(i)})
	}
	v1 := l.view()
	v2 := l.view()
	if v1 != v2 {
		t.Fatal("unchanged ledger rebuilt its snapshot")
	}
	if len(v1.txs) != 3 {
		t.Fatalf("snapshot %+v, want 3 rows", v1)
	}
	seq := l.nextSeq()
	l.file(Transaction{Seq: int(seq), Price: 10})
	v3 := l.view()
	if v3 == v1 {
		t.Fatal("stale snapshot served after a new recording")
	}
	if len(v3.txs) != 4 || v3.txs[3].Seq != 4 {
		t.Fatalf("rebuilt snapshot %+v, want 4 rows", v3)
	}
}

// TestLedgerViewOrdersAcrossStripes: rows filed out of stripe order
// still come back in Seq order.
func TestLedgerViewOrdersAcrossStripes(t *testing.T) {
	var l shardedLedger
	for _, seq := range []int{17, 2, 33, 1, 16} {
		l.file(Transaction{Seq: seq})
	}
	v := l.view()
	want := []int{1, 2, 16, 17, 33}
	for i, tx := range v.txs {
		if tx.Seq != want[i] {
			t.Fatalf("position %d has seq %d, want %d", i, tx.Seq, want[i])
		}
	}
}

// TestStampMonotonicLogicalClock: each recorded sale carries the next
// logical clock value, and the wall half comes from the injected
// clock.
func TestStampMonotonicLogicalClock(t *testing.T) {
	b := testBroker(t)
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	b.SetClock(func() time.Time { return fixed })
	menu, err := b.PriceErrorCurve(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.BuyAtPointContext(context.Background(), ml.LinearRegression, menu[0].Delta); err != nil {
			t.Fatal(err)
		}
	}
	txs := b.Ledger()
	for i, tx := range txs {
		if tx.Stamp.Logical != uint64(i+1) {
			t.Fatalf("row %d has logical stamp %d, want %d", i, tx.Stamp.Logical, i+1)
		}
		if !tx.Stamp.Wall.Equal(fixed) {
			t.Fatalf("row %d wall stamp %v, want injected %v", i, tx.Stamp.Wall, fixed)
		}
	}
}
