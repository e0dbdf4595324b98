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
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/curves"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/replica"
	"github.com/datamarket/mbp/internal/store"
	"github.com/datamarket/mbp/internal/synth"
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

// newShippedFollower opens (or, on a restart, recovers) the follower
// journal in dir. The follower stance is set before the journal is
// attached, as mbpmarket -role follower does, so the open adds nothing.
func newShippedFollower(t *testing.T, dir string, faults *store.Faults) *shippedFollower {
	t.Helper()
	f := &shippedFollower{b: testBroker(t)}
	d, rs, err := OpenDurableLedger(dir, store.Options{
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
	f.b.SetFollower("leader:0")
	f.b.AttachDurableLedger(d, rs)
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
	if got := len(f.d.replayRows(t)); got != rows {
		t.Fatalf("%s: %d replay entries, want %d", what, got, rows)
	}
	if err := f.d.Healthy(); err != nil {
		t.Fatalf("%s: store unhealthy: %v", what, err)
	}
	requireAccounted(t, what, f.d)
}

// requireAccounted checks a ledger's accounted set: its rows and skips
// are disjoint and, with the sales the caller knows are still in
// flight, account for every number from 1 to the sequence high-water
// mark exactly once.
func requireAccounted(tb testing.TB, what string, d *DurableLedger, inFlight ...uint64) {
	tb.Helper()
	hw := d.mem.seq.Load()
	count := make(map[uint64]int)
	for _, tx := range d.mem.view().txs {
		count[uint64(tx.Seq)]++
	}
	d.mu.Lock()
	for _, sk := range d.skips {
		count[sk]++
	}
	d.mu.Unlock()
	for _, seq := range inFlight {
		count[seq]++
	}
	for seq := uint64(1); seq <= hw; seq++ {
		if count[seq] != 1 {
			tb.Fatalf("%s: seq %d is accounted %d times by rows, skips and in-flight sales, want once (high-water %d)",
				what, seq, count[seq], hw)
		}
	}
	if len(count) != int(hw) {
		tb.Fatalf("%s: %d numbers accounted, want the %d up to the high-water mark", what, len(count), hw)
	}
}

// reopen closes d and recovers its directory, requiring the rows, skips
// and sequence high-water mark the live ledger held and nothing lost.
func reopen(t *testing.T, d *DurableLedger) *DurableLedger {
	t.Helper()
	rows, hw := d.mem.view().txs, d.mem.seq.Load()
	d.mu.Lock()
	skips := slices.Clone(d.skips)
	d.mu.Unlock()
	slices.Sort(skips)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, rs, err := OpenDurableLedger(d.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	got := d2.mem.view().txs
	if len(got) != len(rows) {
		t.Fatalf("reopened: %d rows, live ledger held %d", len(got), len(rows))
	}
	for i := range rows {
		if !sameTxBits(got[i], rows[i]) {
			t.Fatalf("reopened: row %d is %+v, live ledger held %+v", i, got[i], rows[i])
		}
	}
	gotSkips := slices.Clone(d2.skips)
	slices.Sort(gotSkips)
	if !slices.Equal(gotSkips, skips) || rs.MaxSeq != hw || len(rs.Lost) != 0 {
		t.Fatalf("reopened: skips %v, max seq %d, lost %v; live ledger held skips %v at high-water %d",
			gotSkips, rs.MaxSeq, rs.Lost, skips, hw)
	}
	return d2
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
	f := newShippedFollower(t, t.TempDir(), nil)
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

	f := newShippedFollower(t, t.TempDir(), nil)
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
	f := newShippedFollower(t, t.TempDir(), &store.Faults{Sync: func() error {
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
	f := newShippedFollower(t, t.TempDir(), nil)
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

// replayRows decodes the idempotency entries d's journal holds from its
// own frames, the newest per key.
func (d *DurableLedger) replayRows(tb testing.TB) map[string]walReplay {
	tb.Helper()
	rows := make(map[string]walReplay)
	for cursor := uint64(0); cursor < d.st.Frames(); {
		recs, next, err := d.st.ReadFrom(cursor, 1<<20)
		if err != nil {
			tb.Fatal(err)
		}
		for _, rec := range recs {
			wr, err := decodeWALRecord(rec)
			if err != nil {
				tb.Fatal(err)
			}
			if wr.Kind == walKindTx && wr.Tx.Replay != nil {
				rows[wr.Tx.Replay.Key] = *wr.Tx.Replay
			}
		}
		cursor = next
	}
	return rows
}

// outOfOrder is a leader stream that journaled sale 3 before sale 2:
// the leader allocates a number before it journals the sale, so
// concurrent sales can reach the journal in either order.
func outOfOrder(t *testing.T) [][]byte {
	recs := shipment(t, 3, 0)
	return [][]byte{recs[0], recs[1], recs[3], recs[2]}
}

// TestFollowerRestartMidGapFilesLateSaleOnce: the follower restarts
// between the shipments of sale 3 and sale 2. Its open must not derive 2
// as lost — only the node that owns the numbering may — so when sale 2
// arrives it is filed once, and a reopen keeps three rows and no skip.
func TestFollowerRestartMidGapFilesLateSaleOnce(t *testing.T) {
	dir := t.TempDir()
	recs := outOfOrder(t)
	f := newShippedFollower(t, dir, nil)
	if code := f.post(0, recs[:3]); code != http.StatusOK {
		t.Fatalf("POST of sales 1 and 3: HTTP %d", code)
	}
	requireAccounted(t, "before the restart", f.d, 2)
	if err := f.d.Close(); err != nil {
		t.Fatal(err)
	}
	f = newShippedFollower(t, dir, nil)
	requireAccounted(t, "after the restart", f.d, 2)
	if code := f.post(3, recs[3:]); code != http.StatusOK {
		t.Fatalf("POST of sale 2: HTTP %d", code)
	}
	f.expect(t, "after the late sale", recs, 3)
	d := reopen(t, f.d)
	requireAccounted(t, "reopened", d)
	if len(d.skips) != 0 || d.mem.seq.Load() != 3 {
		t.Fatalf("reopened: skips %v at high-water %d, want none at 3", d.skips, d.mem.seq.Load())
	}
}

// TestFollowerPromotedWithGapJournalsLost: the leader died with sale 2
// in flight after shipping sale 3. Promotion makes the follower the
// owner of the numbering, so it journals 2 as a skip record: the live
// node and a reopen of its journal agree, and the next sale takes 4. A
// stale leader restarted on the same three frames derives the same
// number and appends the same skip frame.
func TestFollowerPromotedWithGapJournalsLost(t *testing.T) {
	recs := outOfOrder(t)[:3]
	f := newShippedFollower(t, t.TempDir(), nil)
	if code := f.post(0, recs); code != http.StatusOK {
		t.Fatalf("POST of sales 1 and 3: HTTP %d", code)
	}
	requireAccounted(t, "before promotion", f.d, 2)
	f.b.Promote()
	requireAccounted(t, "after promotion", f.d)
	frames, digest := f.d.st.Frames(), f.d.st.StreamDigest()
	if frames != uint64(len(recs))+1 {
		t.Fatalf("promotion journaled %d frames, want one skip frame", frames-uint64(len(recs)))
	}

	staleDir := t.TempDir()
	st, _, err := store.Open(staleDir, store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stale, rs, err := OpenDurableLedger(staleDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if !slices.Equal(rs.Lost, []uint64{2}) {
		t.Fatalf("stale leader's open derived lost %v, want [2]", rs.Lost)
	}
	requireAccounted(t, "stale leader opened", stale, 2)
	testBroker(t).AttachDurableLedger(stale, rs)
	requireAccounted(t, "stale leader attached", stale)
	if stale.st.Frames() != frames || stale.st.StreamDigest() != digest {
		t.Fatalf("stale leader: frames %d digest %08x, promoted follower: %d/%08x",
			stale.st.Frames(), stale.st.StreamDigest(), frames, digest)
	}

	p, err := f.b.BuyAtPointContext(context.Background(), ml.LinearRegression, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 4 {
		t.Fatalf("first sale after promotion got seq %d, want 4", p.Seq)
	}
	requireAccounted(t, "after a sale", f.d)
	requireAccounted(t, "reopened", reopen(t, f.d))
}

// TestFollowerFailedAppendLeavesEpochFenceOpen: a shipment that moves
// from pre-attribution (v1) to attributed (v2) sales is legal. When the
// follower fails to journal it nothing is applied, so the epoch fence
// must not latch either: the re-shipped stream is accepted.
func TestFollowerFailedAppendLeavesEpochFenceOpen(t *testing.T) {
	injected := errors.New("injected fsync")
	failSync := false
	f := newShippedFollower(t, t.TempDir(), &store.Faults{Sync: func() error {
		if failSync {
			failSync = false
			return injected
		}
		return nil
	}})
	recs := shipment(t, 3, 1)
	failSync = true
	if code := f.post(0, recs); code != http.StatusInternalServerError {
		t.Fatalf("POST under a failing fsync: HTTP %d, want 500", code)
	}
	f.expect(t, "after the failed append", nil, 0)
	if code := f.post(0, recs); code != http.StatusOK {
		t.Fatalf("re-shipped POST: HTTP %d, want 200", code)
	}
	f.expect(t, "after the re-ship", recs, 3)
}

// classifierBroker is a broker selling two classifiers over one
// dataset, so a test can reprice one model and ship the other.
func classifierBroker(t *testing.T) *Broker {
	t.Helper()
	sp, err := synth.Generate("SUSY", 0.0005, 2)
	if err != nil {
		t.Fatal(err)
	}
	research, err := curves.Build(curves.Concave, curves.Uniform, 10, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(&Seller{Name: "susy", Data: sp, Research: research}, noise.Gaussian{}, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []ml.Model{ml.LogisticRegression, ml.LinearSVM} {
		if err := b.AddModel(m, AddModelOptions{Train: ml.Options{Mu: 1e-3}, MCSamples: 20}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestFollowerKeepsItsOwnRepricingWhenDeposed: a leader restarted on a
// journal that holds a repricing of one model reprices it again, is
// deposed, and then applies a shipment that reprices the other model.
// Only the shipped curve is republished: the model the node repriced
// itself keeps its newest curve, not the older one recovery applied.
func TestFollowerKeepsItsOwnRepricingWhenDeposed(t *testing.T) {
	scaled := func(b *Broker, m ml.Model, f float64) *pricing.Curve {
		t.Helper()
		c, err := b.Curve(m)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]pricing.Point, len(c.Points()))
		for i, pt := range c.Points() {
			pts[i] = pricing.Point{X: pt.X, Price: pt.Price * f}
		}
		if c, err = pricing.NewCurve(pts); err != nil {
			t.Fatal(err)
		}
		return c
	}
	dir := t.TempDir()
	b := classifierBroker(t)
	d, rs, err := OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.AttachDurableLedger(d, rs)
	if err := b.RepublishCurve(ml.LinearSVM, scaled(b, ml.LinearSVM, 1.5)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	b = classifierBroker(t)
	d, rs, err = OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	b.AttachDurableLedger(d, rs)
	own := scaled(b, ml.LinearSVM, 1.2)
	if err := b.RepublishCurve(ml.LinearSVM, own); err != nil {
		t.Fatal(err)
	}
	shipped := scaled(b, ml.LogisticRegression, 1.3)
	rec, err := json.Marshal(walRecord{Kind: walKindCurve, Curve: &walCurve{Model: ml.LogisticRegression, Points: shipped.Points()}})
	if err != nil {
		t.Fatal(err)
	}
	b.SetFollower("leader:1")
	if err := NewFollowerApplier(b, d).ApplyRecords([][]byte{rec}); err != nil {
		t.Fatal(err)
	}
	for m, want := range map[ml.Model]*pricing.Curve{ml.LinearSVM: own, ml.LogisticRegression: shipped} {
		got, err := b.Curve(m)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Points(), want.Points()) {
			t.Fatalf("%v serves %v, want %v", m, got.Points(), want.Points())
		}
	}
}
