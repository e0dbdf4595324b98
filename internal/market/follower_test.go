package market

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/replica"
	"github.com/datamarket/mbp/internal/store"
)

// shippedFollower is a follower broker behind its replica endpoint, fed
// POST /replica/frames directly. appends and fsyncs count its store's
// hook calls.
type shippedFollower struct {
	b               *Broker
	d               *DurableLedger
	node            *replica.Node
	appends, fsyncs int
}

func newShippedFollower(t *testing.T, faults *store.Faults) *shippedFollower {
	t.Helper()
	f := &shippedFollower{b: testBroker(t)}
	d, rs, err := OpenDurableLedger(t.TempDir(), store.Options{
		Faults: faults,
		Hooks: store.Hooks{
			OnAppend: func(time.Duration) { f.appends++ },
			OnFsync:  func() { f.fsyncs++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	f.b.AttachDurableLedger(d, rs)
	f.b.SetFollower("leader:0")
	f.d = d
	if f.node, err = replica.New(replica.Config{Store: d.Store(), Applier: NewFollowerApplier(f.b, d), Broker: f.b}); err != nil {
		t.Fatal(err)
	}
	return f
}

// post ships recs as one POST /replica/frames at cursor and returns the
// HTTP status.
func (f *shippedFollower) post(cursor uint64, recs [][]byte) int {
	req := httptest.NewRequest(http.MethodPost, "/replica/frames", bytes.NewReader(store.EncodeFrames(nil, recs)))
	req.Header.Set("X-Replica-Epoch", "0")
	req.Header.Set("X-Replica-Cursor", strconv.FormatUint(cursor, 10))
	w := httptest.NewRecorder()
	f.node.HandleFrames(w, req)
	return w.Code
}

// expect checks the follower holds exactly the stream prefix recs: its
// frame cursor and digest, ledger rows and replay entries.
func (f *shippedFollower) expect(t *testing.T, what string, recs [][]byte, rows int) {
	t.Helper()
	var digest uint32
	for _, rec := range recs {
		digest = crc32.Update(digest, crc32.MakeTable(crc32.Castagnoli), rec)
	}
	st := f.d.Store()
	if st.Frames() != uint64(len(recs)) || st.StreamDigest() != digest {
		t.Fatalf("%s: frames %d digest %08x, want %d/%08x", what, st.Frames(), st.StreamDigest(), len(recs), digest)
	}
	if got, _, _ := f.d.mem.totals(); got != rows {
		t.Fatalf("%s: %d ledger rows, want %d", what, got, rows)
	}
	if got := len(f.d.replayRows()); got != rows {
		t.Fatalf("%s: %d replay entries, want %d", what, got, rows)
	}
	if err := f.d.Healthy(); err != nil {
		t.Fatalf("%s: store unhealthy: %v", what, err)
	}
}

// shipment is a leader stream: a stakes record, then keyed sales
// 1..sales in the v2 attribution envelope, except that the sale at
// index v1At of the stream (when > 0) is a bare v1 record, built as
// pre-attribution journals hold it.
func shipment(t *testing.T, sales, v1At int) [][]byte {
	t.Helper()
	stakes, err := validStakes([]SellerStake{{ID: "a", Weight: 3}, {ID: "b", Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	stakesRec, err := json.Marshal(walRecord{Kind: walKindStakes, Stakes: stakes})
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{stakesRec}
	for seq := 1; seq <= sales; seq++ {
		tx := attributedTx(seq, float64(100+seq), stakes)
		rp := &walReplay{Key: fmt.Sprintf("key-%d", seq), Seq: seq, At: tx.Stamp.Wall}
		if len(recs) == v1At {
			tx.Shares, tx.BrokerShare = nil, 0
			recs = append(recs, legacyTxRecord(t, &walTx{Transaction: tx, Replay: rp}))
			continue
		}
		recs = append(recs, encodeRecord(t, &walTx{Transaction: tx, Replay: rp}))
	}
	return recs
}

func TestFollowerBatchKeepsPrefixBeforeDowngrade(t *testing.T) {
	f := newShippedFollower(t, nil)
	// Record 3 is a bare v1 sale after two v2 sales: the epoch fence
	// rejects it, and records [0, 3) are journaled and applied.
	recs := shipment(t, 4, 3)
	if code := f.post(0, recs); code != http.StatusInternalServerError {
		t.Fatalf("POST with a downgraded record: HTTP %d, want 500", code)
	}
	f.expect(t, "after the rejected record", recs[:3], 2)
	if f.fsyncs != 1 {
		t.Fatalf("%d fsyncs for one shipment, want 1", f.fsyncs)
	}
	// A re-ship skips the journaled prefix and stops at the same record.
	if code := f.post(0, recs); code != http.StatusInternalServerError {
		t.Fatalf("re-shipped POST: HTTP %d, want 500", code)
	}
	f.expect(t, "after the re-ship", recs[:3], 2)
}

// TestFollowerPromotedReplayKeepsAttribution: a follower that applied
// the leader's records and was then promoted answers a retry of a
// keyed sale with the sale's attribution table and broker cut, exactly
// as the leader would.
func TestFollowerPromotedReplayKeepsAttribution(t *testing.T) {
	leader := testBroker(t)
	d, rs, err := OpenDurableLedger(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	leader.AttachDurableLedger(d, rs)
	if err := leader.SetSellerStakes([]SellerStake{{ID: "a", Weight: 3}, {ID: "b", Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	orig, _, err := leader.BuyIdempotent(ctx, "attr-key", func(ctx context.Context) (*Purchase, error) {
		return leader.BuyAtPointContext(ctx, ml.LinearRegression, 0.1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Shares) != 2 || orig.BrokerShare == 0 {
		t.Fatalf("sale attributed %v / %v, want 2 seller shares and a broker cut", orig.Shares, orig.BrokerShare)
	}
	recs, _, err := d.Store().ReadFrom(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	f := newShippedFollower(t, nil)
	if code := f.post(0, recs); code != http.StatusOK {
		t.Fatalf("POST of the leader's records: HTTP %d", code)
	}
	f.b.Promote()
	errFresh := errors.New("executed fresh")
	p, replayed, err := f.b.BuyIdempotent(ctx, "attr-key", func(context.Context) (*Purchase, error) {
		return nil, errFresh
	})
	if err != nil || !replayed {
		t.Fatalf("retry on the promoted follower: replayed=%v err=%v, want a replay", replayed, err)
	}
	if p.Seq != orig.Seq || p.BrokerShare != orig.BrokerShare || !reflect.DeepEqual(p.Shares, orig.Shares) {
		t.Fatalf("replay: seq %d shares %v / %v, want seq %d shares %v / %v",
			p.Seq, p.Shares, p.BrokerShare, orig.Seq, orig.Shares, orig.BrokerShare)
	}
}

func TestFollowerBatchFsyncFailureAppliesNothing(t *testing.T) {
	injected := errors.New("injected fsync")
	failSync := false
	f := newShippedFollower(t, &store.Faults{Sync: func() error {
		if failSync {
			failSync = false
			return injected
		}
		return nil
	}})
	stakesBefore := f.b.SellerStakes()
	recs := shipment(t, 3, 0)
	failSync = true
	if code := f.post(0, recs); code != http.StatusInternalServerError {
		t.Fatalf("POST under a failing fsync: HTTP %d, want 500", code)
	}
	f.expect(t, "after the failed fsync", nil, 0)
	if got := f.b.SellerStakes(); len(got) != len(stakesBefore) {
		t.Fatalf("stakes of an unjournaled batch were published: %v", got)
	}
	if code := f.post(0, recs); code != http.StatusOK {
		t.Fatalf("re-shipped POST: HTTP %d, want 200", code)
	}
	f.expect(t, "after the re-ship", recs, 3)
}

func TestFollowerBatchDedupsOverlappingChunk(t *testing.T) {
	f := newShippedFollower(t, nil)
	recs := shipment(t, 6, 0)
	if code := f.post(0, recs[:3]); code != http.StatusOK {
		t.Fatalf("first chunk: HTTP %d", code)
	}
	f.expect(t, "after the first chunk", recs[:3], 2)
	// A chunk from cursor 1 overlaps frames 1 and 2: only 3..6 are new.
	if code := f.post(1, recs[1:]); code != http.StatusOK {
		t.Fatalf("overlapping chunk: HTTP %d", code)
	}
	f.expect(t, "after the overlapping chunk", recs, 6)
	// A chunk the follower already holds changes nothing; one from a
	// cursor ahead of it is refused so the shipper rewinds.
	if code := f.post(0, recs); code != http.StatusOK {
		t.Fatalf("duplicate chunk: HTTP %d", code)
	}
	if code := f.post(uint64(len(recs))+1, recs[:1]); code != http.StatusPreconditionFailed {
		t.Fatalf("chunk ahead of the follower: HTTP %d, want 412", code)
	}
	f.expect(t, "after the duplicate chunk", recs, 6)
	if f.appends != len(recs) || f.fsyncs != 2 {
		t.Fatalf("OnAppend fired %d times and OnFsync %d; want %d (one per frame) and 2 (one per shipment with new frames)",
			f.appends, f.fsyncs, len(recs))
	}
}
