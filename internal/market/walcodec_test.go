package market

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/store"
)

// legacyTxRecord encodes wtx as journals written before the binary tx
// layout hold it: bare v1 JSON for a sale without an attribution
// table, otherwise a v2 envelope with the JSON document (attribution
// stripped) as payload and the share table as attachment.
func legacyTxRecord(tb testing.TB, wtx *walTx) []byte {
	tb.Helper()
	if wtx.Shares == nil && wtx.BrokerShare == 0 {
		rec, err := json.Marshal(walRecord{Kind: walKindTx, Tx: wtx})
		if err != nil {
			tb.Fatal(err)
		}
		return rec
	}
	stripped := *wtx
	stripped.Shares, stripped.BrokerShare = nil, 0
	payload, err := json.Marshal(walRecord{Kind: walKindTx, Tx: &stripped})
	if err != nil {
		tb.Fatal(err)
	}
	return store.EncodeRecordV2(payload, encodeShareTable(wtx.BrokerShare, wtx.Shares))
}

// encodeRecord is encodeWALTx for a record the test knows is valid.
func encodeRecord(tb testing.TB, wtx *walTx) []byte {
	tb.Helper()
	rec, err := encodeWALTx(wtx)
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// sameWall reports whether got is want as the journal must give it
// back: the same instant and UTC offset, in the location JSON decoding
// of want's RFC 3339 form yields, so the two render byte for byte.
func sameWall(got, want time.Time) bool {
	text, err := want.MarshalJSON()
	if err != nil {
		return false
	}
	var viaJSON time.Time
	if err := viaJSON.UnmarshalJSON(text); err != nil {
		return false
	}
	gotText, _ := got.MarshalJSON()
	_, gotOff := got.Zone()
	_, wantOff := want.Zone()
	return got.Equal(want) && gotOff == wantOff &&
		got.Location().String() == viaJSON.Location().String() && bytes.Equal(gotText, text)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameTxBits reports whether two ledger rows agree bit for bit.
func sameTxBits(a, b Transaction) bool {
	if a.Seq != b.Seq || a.Model != b.Model || a.Stamp.Logical != b.Stamp.Logical ||
		!sameBits(a.Delta, b.Delta) || !sameBits(a.Price, b.Price) ||
		!sameBits(a.ExpectedError, b.ExpectedError) || !sameBits(a.BrokerShare, b.BrokerShare) ||
		!sameWall(a.Stamp.Wall, b.Stamp.Wall) ||
		(a.Shares == nil) != (b.Shares == nil) || len(a.Shares) != len(b.Shares) {
		return false
	}
	for i := range a.Shares {
		x, y := a.Shares[i], b.Shares[i]
		if x.SellerID != y.SellerID || !sameBits(x.Weight, y.Weight) || !sameBits(x.Amount, y.Amount) {
			return false
		}
	}
	return true
}

// sameReplayBits reports whether two idempotency entries agree bit for
// bit.
func sameReplayBits(a, b walReplay) bool {
	if a.Key != b.Key || a.Seq != b.Seq || len(a.W) != len(b.W) ||
		!sameBits(a.Mu, b.Mu) || !sameBits(a.TrainLoss, b.TrainLoss) || !sameWall(a.At, b.At) {
		return false
	}
	for i := range a.W {
		if !sameBits(a.W[i], b.W[i]) {
			return false
		}
	}
	return true
}

// roundTripCases are walTx values at the edges of what the binary
// layout must carry bit for bit.
func roundTripCases(tb testing.TB) map[string]*walTx {
	tb.Helper()
	stakes, err := validStakes([]SellerStake{{ID: "seller-0", Weight: 3}, {ID: "seller-1", Weight: 2}, {ID: "seller-2", Weight: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	wall := time.Date(2026, 10, 17, 21, 5, 25, 123456789, time.UTC)
	keyed := func(tx Transaction, rp walReplay) *walTx {
		if rp.At.IsZero() {
			rp.At = tx.Stamp.Wall
		}
		rp.Seq = tx.Seq
		return &walTx{Transaction: tx, Replay: &rp}
	}
	withWall := func(at time.Time) Transaction {
		tx := attributedTx(7, 123.456, stakes)
		tx.Stamp.Wall = at
		return tx
	}
	negZero := math.Copysign(0, -1)
	subnormal := math.Float64frombits(1) // 2^-1074
	return map[string]*walTx{
		"keyed sale": keyed(attributedTx(1, 123.456, stakes),
			walReplay{Key: "k-1", W: []float64{0.1, -2.5e-7, 1.0 / 3, 12345.678901234}, Mu: 1e-3, TrainLoss: 1.2345}),
		"unkeyed sale": {Transaction: attributedTx(2, 40.1, stakes)},
		"negative zero": keyed(Transaction{
			Seq: 3, Delta: negZero, Price: negZero, ExpectedError: negZero, BrokerShare: negZero,
			Shares: []SellerShare{{SellerID: "a", Weight: negZero, Amount: negZero}},
			Stamp:  Stamp{Logical: 3, Wall: wall},
		}, walReplay{Key: "neg", W: []float64{negZero}, Mu: negZero, TrainLoss: negZero}),
		"subnormals": keyed(Transaction{
			Seq: 4, Delta: subnormal, Price: math.SmallestNonzeroFloat64 * 3, ExpectedError: 0x1p-1022 - subnormal,
			BrokerShare: subnormal, Shares: []SellerShare{{SellerID: "a", Weight: 1, Amount: subnormal * 2}},
			Stamp: Stamp{Logical: 4, Wall: wall},
		}, walReplay{Key: "sub", W: []float64{subnormal, -subnormal, 0x1p-1022 - subnormal}, Mu: subnormal, TrainLoss: -subnormal}),
		"extreme integers": {Transaction: Transaction{
			Seq: math.MaxInt64, Model: ml.Model(-1), Price: math.MaxFloat64, Delta: -math.MaxFloat64,
			Shares: []SellerShare{}, Stamp: Stamp{Logical: math.MaxUint64, Wall: wall},
		}},
		"long key": keyed(attributedTx(5, 77, stakes),
			walReplay{Key: strings.Repeat("κ\x00y", 30000), W: make([]float64, 300)}),
		"empty key, no weights": keyed(attributedTx(6, 77, stakes), walReplay{}),
		"zero time":             keyed(withWall(time.Time{}), walReplay{Key: "zero"}),
		"UTC wall":              keyed(withWall(wall), walReplay{Key: "utc"}),
		"Local wall":            keyed(withWall(wall.Local()), walReplay{Key: "local"}),
		"FixedZone +05:30 wall": keyed(withWall(wall.In(time.FixedZone("IST", 5*3600+30*60))),
			walReplay{Key: "ist", At: wall.In(time.FixedZone("", -(3*3600 + 30*60)))}),
		"wall with a monotonic reading": keyed(withWall(time.Now()), walReplay{Key: "now"}),
	}
}

// TestWALTxRoundTripBitExact: every field of a tx record comes back
// bit for bit from the binary layout, its walls render as they did,
// and what decodes re-encodes to the same bytes.
func TestWALTxRoundTripBitExact(t *testing.T) {
	for name, wtx := range roundTripCases(t) {
		t.Run(name, func(t *testing.T) {
			rec := encodeRecord(t, wtx)
			wr, isV2, err := decodeWALRecord(rec)
			if err != nil || !isV2 || wr.Kind != walKindTx {
				t.Fatalf("decode: kind %q isV2=%v err=%v", wr.Kind, isV2, err)
			}
			if !sameTxBits(wr.Tx.Transaction, wtx.Transaction) {
				t.Fatalf("row came back %+v, want %+v", wr.Tx.Transaction, wtx.Transaction)
			}
			if (wr.Tx.Replay == nil) != (wtx.Replay == nil) ||
				wtx.Replay != nil && !sameReplayBits(*wr.Tx.Replay, *wtx.Replay) {
				t.Fatalf("replay came back %+v, want %+v", wr.Tx.Replay, wtx.Replay)
			}
			if again := encodeRecord(t, wr.Tx); !bytes.Equal(again, rec) {
				t.Fatal("decoded record re-encodes to different bytes")
			}
			if _, payload, _, _ := store.DecodeRecord(rec); len(payload) != walTxSize(wtx) {
				t.Fatalf("payload is %d bytes, walTxSize says %d", len(payload), walTxSize(wtx))
			}
		})
	}
}

// TestWALTxRefusesWhatJSONCannotCarry: non-finite floats and walls
// without an RFC 3339 form are refused on the way in — by the encoder,
// and so as ErrSaleNotRecorded by the journal — and on the way out.
func TestWALTxRefusesWhatJSONCannotCarry(t *testing.T) {
	stakes, _ := validStakes([]SellerStake{{ID: "a", Weight: 1}})
	// The journal stamps a replay entry with its sale's wall, so base
	// does too.
	base := func() *walTx {
		tx := attributedTx(1, 100, stakes)
		return &walTx{Transaction: tx, Replay: &walReplay{Key: "k", Seq: 1, W: []float64{1, 2}, At: tx.Stamp.Wall}}
	}
	setWall := func(at time.Time) func(*walTx) {
		return func(w *walTx) { w.Stamp.Wall, w.Replay.At = at, at }
	}
	for name, mutate := range map[string]func(*walTx){
		"NaN delta":           func(w *walTx) { w.Delta = math.NaN() },
		"+Inf price":          func(w *walTx) { w.Price = math.Inf(1) },
		"-Inf expected error": func(w *walTx) { w.ExpectedError = math.Inf(-1) },
		"NaN weight":          func(w *walTx) { w.Replay.W[1] = math.NaN() },
		"Inf mu":              func(w *walTx) { w.Replay.Mu = math.Inf(1) },
		"NaN train loss":      func(w *walTx) { w.Replay.TrainLoss = math.NaN() },
		"year 10000":          setWall(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)),
		"negative year":       setWall(time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)),
		"24-hour offset":      setWall(time.Unix(0, 0).In(time.FixedZone("", 24*3600))),
	} {
		t.Run(name, func(t *testing.T) {
			wtx := base()
			mutate(wtx)
			if _, err := encodeWALTx(wtx); !errors.Is(err, errWALTx) {
				t.Fatalf("encoded: err = %v", err)
			}
			d, _, err := OpenDurableLedger(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			err = d.record(context.Background(), wtx.Transaction, &pendingReplay{key: "k", p: &Purchase{
				Seq: 1, Instance: &ml.Instance{W: wtx.Replay.W, Mu: wtx.Replay.Mu, TrainLoss: wtx.Replay.TrainLoss}}})
			if !errors.Is(err, ErrSaleNotRecorded) {
				t.Fatalf("journaled: err = %v, want ErrSaleNotRecorded", err)
			}
			if rows, _, _ := d.mem.totals(); rows != 0 || d.st.Frames() != 0 {
				t.Fatalf("refused sale left %d rows and %d frames", rows, d.st.Frames())
			}
		})
	}

	late := base()
	late.Replay.At = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := encodeWALTx(late); !errors.Is(err, errWALTx) {
		t.Fatalf("replay entry from year 10000 encoded: err = %v", err)
	}

	// The decoder refuses the same values when a payload carries them.
	payload, err := appendWALTx(nil, base())
	if err != nil {
		t.Fatal(err)
	}
	const priceAt = 1 + 8 + 8 + 8 // tag, Seq, Model, Delta
	for name, bits := range map[string]uint64{
		"NaN": math.Float64bits(math.NaN()), "+Inf": math.Float64bits(math.Inf(1)), "-Inf": math.Float64bits(math.Inf(-1)),
	} {
		bad := append([]byte(nil), payload...)
		for i := 0; i < 8; i++ {
			bad[priceAt+i] = byte(bits >> (8 * i))
		}
		if _, err := decodeWALTx(bad); !errors.Is(err, errWALTx) {
			t.Fatalf("%s price decoded: err = %v", name, err)
		}
	}
}

// FuzzWALTxDecode: no payload panics the decoder or the record path
// around it, no corrupt length or count allocates past the payload,
// and every payload that decodes re-encodes to the same bytes.
func FuzzWALTxDecode(f *testing.F) {
	for _, wtx := range roundTripCases(f) {
		payload, err := appendWALTx(nil, wtx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		f.Add(append(payload, 0))
	}
	keyAt := walTxFixedBytes // the replay entry's key length
	huge, _ := appendWALTx(nil, &walTx{Replay: &walReplay{Key: "k"}})
	huge[keyAt], huge[keyAt+1], huge[keyAt+2], huge[keyAt+3] = 0xff, 0xff, 0xff, 0xff
	f.Add(huge)
	count, _ := appendWALTx(nil, &walTx{Replay: &walReplay{Key: "k", W: []float64{1}}})
	countAt := keyAt + 4 + 1 + 8
	count[countAt], count[countAt+1], count[countAt+2], count[countAt+3] = 0xff, 0xff, 0xff, 0x7f
	f.Add(count)
	f.Add([]byte(`{"kind":"tx","tx":{"Seq":1}}`))

	table := encodeShareTable(1.5, []SellerShare{{SellerID: "a", Weight: 1, Amount: 2}})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wtx, err := decodeWALTx(payload)
		runtime.ReadMemStats(&after)
		// Allocation is bounded by what the payload holds: a key, the
		// weights and fixed-size structs. The slack covers the runtime.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(payload))+1<<20; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		// The record path around it never panics either, and reads a
		// payload opening with the tag exactly as the decoder does.
		wr, _, recErr := decodeWALRecord(store.EncodeRecordV2(payload, table))
		if len(payload) > 0 && payload[0] == walTxTag && (recErr == nil) != (err == nil) {
			t.Fatalf("record path err %v, decoder err %v", recErr, err)
		}
		if err != nil {
			return
		}
		again, err := appendWALTx(nil, wtx)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded %x, decoded from %x", again, payload)
		}
		if rec := encodeRecord(t, wr.Tx); !bytes.Equal(rec, store.EncodeRecordV2(payload, table)) {
			t.Fatal("record with its share table re-encodes to different bytes")
		}
	})
}

// preBinaryJournal is what testdata/pre-binary-journal holds, record by
// record: a journal written before tx records were binary, by the
// encoder of that time — v1 sales from before attribution, a stakes
// record, keyed JSON-v2 sales split over three sellers, a skip and a
// repriced curve.
func preBinaryJournal() []walRecord {
	stakes := []SellerStake{{ID: "seller-0", Weight: 0.5}, {ID: "seller-1", Weight: 0.3}, {ID: "seller-2", Weight: 0.2}}
	ist := time.FixedZone("", 5*3600+30*60)
	sale := func(seq int, price float64, wall time.Time, key string, brokerShare float64, amounts ...float64) walRecord {
		tx := Transaction{Seq: seq, Model: ml.LinearRegression, Delta: 0.01 * float64(seq+1), Price: price,
			ExpectedError: price / 7, Stamp: Stamp{Logical: uint64(seq), Wall: wall}}
		if amounts != nil {
			tx.BrokerShare = brokerShare
			for i, a := range amounts {
				tx.Shares = append(tx.Shares, SellerShare{SellerID: stakes[i].ID, Weight: stakes[i].Weight, Amount: a})
			}
		}
		wtx := &walTx{Transaction: tx}
		if key != "" {
			wtx.Replay = &walReplay{Key: key, Seq: seq, W: []float64{0.1 * float64(seq), -2.5e-7, 1.0 / 3, 12345.678901234},
				Mu: 1e-3, TrainLoss: 0.8125 + float64(seq)/3, At: wall}
		}
		return walRecord{Kind: walKindTx, Tx: wtx}
	}
	return []walRecord{
		sale(1, 31.25, time.Date(2019, 6, 30, 12, 0, 1, 123456789, time.UTC), "legacy-1", 0),
		sale(2, 40.1, time.Date(2019, 6, 30, 17, 30, 2, 5, ist), "", 0),
		{Kind: walKindStakes, Stakes: stakes},
		sale(3, 123.456, time.Date(2024, 2, 29, 23, 59, 59, 999999999, time.UTC), "json-v2-3",
			12.345600000000005, 55.5552, 33.333119999999994, 22.222080000000005),
		sale(4, 1.0/3, time.Date(2024, 3, 1, 5, 30, 0, 0, ist), "json-v2-4",
			0.033333333333333326, 0.15000000000000002, 0.08999999999999997, 0.06),
		{Kind: walKindSkip, Seq: 5},
		{Kind: walKindCurve, Curve: &walCurve{Model: ml.LinearSVM, Points: []pricing.Point{{X: 5, Price: 10}, {X: 10, Price: 18.5}, {X: 20, Price: 30.25}}}},
		sale(6, 99.99, time.Date(2024, 3, 1, 0, 0, 6, 600000, time.UTC), "json-v2-6",
			9.998999999999995, 44.99550000000001, 26.997299999999996, 17.998199999999997),
	}
}

// copyJournal copies a journal directory's files into a fresh
// temporary directory, so opening it cannot change the original.
func copyJournal(tb testing.TB, src string) string {
	tb.Helper()
	dst := tb.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}

// TestDurableRecoversPreBinaryJournal: a journal written before tx
// records were binary recovers exactly, keeps recovering once binary
// sales are appended to it, and replicates to a follower whose stream
// digest matches the leader's.
func TestDurableRecoversPreBinaryJournal(t *testing.T) {
	want := preBinaryJournal()
	dir := copyJournal(t, filepath.Join("testdata", "pre-binary-journal"))

	// The committed bytes are the old encoding of want, so the
	// compatibility helper the other tests build records with is
	// faithful to it.
	var onDisk [][]byte
	st, _, err := store.Open(copyJournal(t, dir), store.Options{}, nil, func(rec []byte) error {
		onDisk = append(onDisk, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if len(onDisk) != len(want) {
		t.Fatalf("journal holds %d records, want %d", len(onDisk), len(want))
	}
	for i, wr := range want {
		old, _ := json.Marshal(wr)
		if wr.Kind == walKindTx {
			old = legacyTxRecord(t, wr.Tx)
		}
		if !bytes.Equal(onDisk[i], old) {
			t.Fatalf("record %d is %q, want %q", i, onDisk[i], old)
		}
	}

	d, rs, err := OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Transactions != 5 || rs.Skips != 1 || rs.MaxSeq != 6 || rs.Logical != 6 || rs.Replays != 4 || len(rs.Lost) != 0 {
		t.Fatalf("recovered %+v", rs)
	}
	var rows []Transaction
	replays := map[string]walReplay{}
	for _, wr := range want {
		switch wr.Kind {
		case walKindTx:
			rows = append(rows, wr.Tx.Transaction)
			if rp := wr.Tx.Replay; rp != nil {
				replays[rp.Key] = *rp
			}
		case walKindStakes:
			if len(rs.Stakes) != len(wr.Stakes) {
				t.Fatalf("recovered stakes %v, want %v", rs.Stakes, wr.Stakes)
			}
			for i := range wr.Stakes {
				if rs.Stakes[i].ID != wr.Stakes[i].ID || !sameBits(rs.Stakes[i].Weight, wr.Stakes[i].Weight) {
					t.Fatalf("recovered stakes %v, want %v", rs.Stakes, wr.Stakes)
				}
			}
		case walKindCurve:
			got := rs.Curves[wr.Curve.Model]
			if len(rs.Curves) != 1 || fmt.Sprint(got) != fmt.Sprint(wr.Curve.Points) {
				t.Fatalf("recovered curves %v, want %v", rs.Curves, wr.Curve.Points)
			}
		}
	}
	checkRows := func(what string, got, want []Transaction) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !sameTxBits(got[i], want[i]) {
				t.Fatalf("%s: row %d is %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	checkReplays := func(what string, got, want map[string]walReplay) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d replay entries, want %d", what, len(got), len(want))
		}
		for k, rp := range want {
			if g, ok := got[k]; !ok || !sameReplayBits(g, rp) {
				t.Fatalf("%s: replay %q is %+v, want %+v", what, k, g, rp)
			}
		}
	}
	checkRows("recovered", d.mem.view().txs, rows)
	checkReplays("recovered", d.replayRows(), replays)

	// Binary sales append to the old journal through the live broker.
	b := testBroker(t)
	b.AttachDurableLedger(d, rs)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("binary-%d", i)
		p, _, err := b.BuyIdempotent(ctx, key, func(ctx context.Context) (*Purchase, error) {
			return b.BuyAtPointContext(ctx, ml.LinearRegression, 0.1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.Seq != 7+i || len(p.Shares) != 3 {
			t.Fatalf("sale %d: seq %d with %d shares, want seq %d over 3 sellers", i, p.Seq, len(p.Shares), 7+i)
		}
	}
	live, liveReplays := b.Ledger(), d.replayRows()
	frames, digest := d.st.Frames(), d.st.StreamDigest()
	recs, _, err := d.st.ReadFrom(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[len(want):] {
		if _, payload, _, _ := store.DecodeRecord(rec); payload[0] != walTxTag {
			t.Fatalf("new sale journaled as %q, want the binary layout", rec)
		}
	}

	d2, rs2, err := OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rs2.Transactions != 8 || rs2.MaxSeq != 9 || d2.st.Frames() != frames || d2.st.StreamDigest() != digest {
		t.Fatalf("reopened: %+v, frames %d digest %08x, want 8 rows, frames %d digest %08x",
			rs2, d2.st.Frames(), d2.st.StreamDigest(), frames, digest)
	}
	checkRows("reopened", d2.mem.view().txs, live)
	checkReplays("reopened", d2.replayRows(), liveReplays)

	// A follower applying the whole stream holds the same ledger, and
	// its chained digest matches the leader's byte for byte.
	fd, frs, err := OpenDurableLedger(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	fb := testBroker(t)
	fb.AttachDurableLedger(fd, frs)
	fb.SetFollower("leader:0")
	if err := NewFollowerApplier(fb, fd).ApplyRecords(recs); err != nil {
		t.Fatal(err)
	}
	if fd.st.Frames() != frames || fd.st.StreamDigest() != digest {
		t.Fatalf("follower frames %d digest %08x, want %d/%08x", fd.st.Frames(), fd.st.StreamDigest(), frames, digest)
	}
	checkRows("replicated", fb.Ledger(), live)
	checkReplays("replicated", fd.replayRows(), liveReplays)
}

// BenchmarkDurableRecovery times OpenDurableLedger over a journal of
// 8000 keyed sales split over three sellers, written in the binary tx
// layout and in the JSON-v2 layout that preceded it, and reports the
// cost per record. Each iteration checks it recovered every row and
// every replay entry.
func BenchmarkDurableRecovery(b *testing.B) {
	const sales = 8000
	stakes, err := validStakes([]SellerStake{{ID: "seller-0", Weight: 3}, {ID: "seller-1", Weight: 2}, {ID: "seller-2", Weight: 1}})
	if err != nil {
		b.Fatal(err)
	}
	stakesRec, err := json.Marshal(walRecord{Kind: walKindStakes, Stakes: stakes})
	if err != nil {
		b.Fatal(err)
	}
	wall := time.Now()
	for _, layout := range []struct {
		name   string
		encode func(testing.TB, *walTx) []byte
	}{
		{"binary", encodeRecord},
		{"json-v2", legacyTxRecord},
	} {
		b.Run(layout.name, func(b *testing.B) {
			dir := b.TempDir()
			st, _, err := store.Open(dir, store.Options{Policy: store.FsyncNever}, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			recs := [][]byte{stakesRec}
			for seq := 1; seq <= sales; seq++ {
				tx := attributedTx(seq, 100+float64(seq%97)/7, stakes)
				tx.Stamp.Wall = wall.Add(time.Duration(seq) * time.Millisecond)
				w := make([]float64, 9)
				for i := range w {
					w[i] = math.Sin(float64(seq*len(w) + i))
				}
				recs = append(recs, layout.encode(b, &walTx{Transaction: tx, Replay: &walReplay{
					Key: fmt.Sprintf("seed-%d", seq), Seq: seq, W: w, Mu: 1e-3, TrainLoss: 1 + float64(seq)/sales, At: tx.Stamp.Wall,
				}}))
			}
			if err := st.Append(recs...); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, rs, err := OpenDurableLedger(dir, store.Options{Policy: store.FsyncNever})
				if err != nil {
					b.Fatal(err)
				}
				if rs.Transactions != sales || rs.Replays != sales {
					b.Fatalf("recovered %d rows and %d replay entries, want %d of each", rs.Transactions, rs.Replays, sales)
				}
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sales), "ns/record")
		})
	}
}
