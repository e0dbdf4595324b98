package market

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/store"
)

// sumShares adds an attribution table in the given index order —
// exact conservation must hold in ANY float64 summation order.
func sumShares(brokerShare float64, shares []SellerShare, order []int) float64 {
	sum := brokerShare
	for _, i := range order {
		sum += shares[i].Amount
	}
	return sum
}

func TestSplitPriceExactConservation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	exps := []int{-1074, -1070, -1022, -500, -60, -1, 0, 10, 52, 53, 100, 308}
	for trial := 0; trial < 2000; trial++ {
		var price float64
		switch trial % 3 {
		case 0: // spread across the exponent range, subnormals included
			price = math.Ldexp(1+r.Float64(), exps[r.Intn(len(exps))])
		case 1: // deep subnormal: an exact multiple of 2^-1074
			price = math.Ldexp(float64(1+r.Intn(1<<20)), -1074)
		default: // realistic menu prices
			price = 100 + 1e4*r.Float64()
		}
		commission := []float64{0, 0.1, 0.25, 0.5, 0.9999, 1}[r.Intn(6)]
		n := 1 + r.Intn(7)
		stakes := make([]SellerStake, n)
		for i := range stakes {
			w := r.Float64()
			if r.Intn(5) == 0 {
				w = 0 // zero-weight sellers must still get an exact (0) amount
			}
			stakes[i] = SellerStake{ID: string(rune('a' + i)), Weight: w}
		}
		norm, err := validStakes(stakes)
		if err != nil {
			t.Fatal(err)
		}

		brokerShare, shares := splitPrice(price, commission, norm)
		if len(shares) != n {
			t.Fatalf("%d shares for %d stakes", len(shares), n)
		}
		if brokerShare < 0 {
			t.Fatalf("negative broker share %v", brokerShare)
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for pass := 0; pass < 3; pass++ {
			r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			if got := sumShares(brokerShare, shares, order); got != price {
				t.Fatalf("price %v (%x) commission %v stakes %v: sum %v (%x) != price",
					price, math.Float64bits(price), commission, norm, got, math.Float64bits(got))
			}
		}
		for i, s := range shares {
			if s.Amount < 0 || math.IsNaN(s.Amount) {
				t.Fatalf("share %d amount %v", i, s.Amount)
			}
			if s.SellerID != norm[i].ID || s.Weight != norm[i].Weight {
				t.Fatalf("share %d = %+v, want stake %+v", i, s, norm[i])
			}
		}
	}
}

func TestSplitPriceDegenerate(t *testing.T) {
	stakes := []SellerStake{{ID: "a", Weight: 0.5}, {ID: "b", Weight: 0.5}}
	for _, price := range []float64{0, -5, math.Inf(1), math.NaN()} {
		brokerShare, shares := splitPrice(price, 0.1, stakes)
		if !(brokerShare == price || (math.IsNaN(price) && math.IsNaN(brokerShare))) {
			t.Fatalf("degenerate price %v: broker share %v, want whole price", price, brokerShare)
		}
		for _, s := range shares {
			if s.Amount != 0 {
				t.Fatalf("degenerate price %v: share %+v, want zero amount", price, s)
			}
		}
	}
	// No stakes at all: the whole price is the broker's.
	if bs, shares := splitPrice(100, 0.1, nil); bs != 100 || len(shares) != 0 {
		t.Fatalf("no stakes: broker %v shares %v", bs, shares)
	}
}

func TestShareTableCodecRoundTrip(t *testing.T) {
	cases := []struct {
		broker float64
		shares []SellerShare
	}{
		{0, []SellerShare{}},
		{12.5, []SellerShare{{SellerID: "a", Weight: 1, Amount: 112.5}}},
		{math.Ldexp(3, -1074), []SellerShare{ // subnormal amounts survive bit-for-bit
			{SellerID: "uci-surrogate", Weight: 0.25, Amount: math.Ldexp(1, -1074)},
			{SellerID: "", Weight: 0.75, Amount: math.Ldexp(7, -1060)},
		}},
	}
	for i, c := range cases {
		enc := encodeShareTable(c.broker, c.shares)
		broker, shares, err := decodeShareTable(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Float64bits(broker) != math.Float64bits(c.broker) {
			t.Fatalf("case %d: broker %x, want %x", i, math.Float64bits(broker), math.Float64bits(c.broker))
		}
		if len(shares) != len(c.shares) {
			t.Fatalf("case %d: %d shares, want %d", i, len(shares), len(c.shares))
		}
		for j := range shares {
			if shares[j].SellerID != c.shares[j].SellerID ||
				math.Float64bits(shares[j].Weight) != math.Float64bits(c.shares[j].Weight) ||
				math.Float64bits(shares[j].Amount) != math.Float64bits(c.shares[j].Amount) {
				t.Fatalf("case %d share %d: %+v, want %+v", i, j, shares[j], c.shares[j])
			}
		}
	}
}

func TestShareTableCodecRejectsMalformed(t *testing.T) {
	good := encodeShareTable(1.5, []SellerShare{{SellerID: "ab", Weight: 1, Amount: 2}})
	huge := make([]byte, 13)
	huge[0] = shareTableVersion
	binary.LittleEndian.PutUint32(huge[9:13], maxSellers+1)
	badVer := append([]byte(nil), good...)
	badVer[0] = shareTableVersion + 1
	for name, b := range map[string][]byte{
		"nil":          nil,
		"short":        good[:12],
		"bad version":  badVer,
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte(nil), good...), 0xFF),
		"absurd count": huge,
	} {
		if _, _, err := decodeShareTable(b); !errors.Is(err, errShareTable) {
			t.Fatalf("%s: err = %v, want errShareTable", name, err)
		}
	}
}

func TestValidStakes(t *testing.T) {
	for name, in := range map[string][]SellerStake{
		"empty":     {},
		"no id":     {{ID: "", Weight: 1}},
		"duplicate": {{ID: "a", Weight: 1}, {ID: "a", Weight: 1}},
		"nan":       {{ID: "a", Weight: math.NaN()}},
		"inf":       {{ID: "a", Weight: math.Inf(1)}},
		"negative":  {{ID: "a", Weight: -0.1}},
	} {
		if _, err := validStakes(in); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	over := make([]SellerStake, maxSellers+1)
	for i := range over {
		over[i] = SellerStake{ID: string(rune(i)) + "x", Weight: 1}
	}
	if _, err := validStakes(over); err == nil {
		t.Fatal("over-cap stake table accepted")
	}

	norm, err := validStakes([]SellerStake{{ID: "a", Weight: 3}, {ID: "b", Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if norm[0].Weight != 0.75 || norm[1].Weight != 0.25 {
		t.Fatalf("normalized weights %v", norm)
	}
	uniform, err := validStakes([]SellerStake{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range uniform {
		if s.Weight != 0.25 {
			t.Fatalf("all-zero stakes normalized to %v", uniform)
		}
	}
}

func TestConservesExactly(t *testing.T) {
	legacy := Transaction{Price: 100}
	if !conservesExactly(&legacy) {
		t.Fatal("legacy row must conserve trivially")
	}
	ok := Transaction{Price: 100, BrokerShare: 10, Shares: []SellerShare{{SellerID: "a", Amount: 90}}}
	if !conservesExactly(&ok) {
		t.Fatal("exact row flagged")
	}
	off := Transaction{Price: 100, BrokerShare: 10, Shares: []SellerShare{{SellerID: "a", Amount: 90 + 1e-11}}}
	if conservesExactly(&off) {
		t.Fatal("ulp drift not flagged")
	}
}

// attributedTx builds a journal-shaped attributed transaction.
func attributedTx(seq int, price float64, stakes []SellerStake) Transaction {
	brokerShare, shares := splitPrice(price, 0.1, stakes)
	return Transaction{
		Seq:         seq,
		Delta:       1,
		Price:       price,
		Shares:      shares,
		BrokerShare: brokerShare,
		Stamp:       Stamp{Logical: uint64(seq), Wall: time.Unix(0, int64(seq)).UTC()},
	}
}

func TestEncodeWALTxVersioning(t *testing.T) {
	stakes, err := validStakes([]SellerStake{{ID: "a", Weight: 2}, {ID: "b", Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-attribution tx, as old journals hold it: bare v1 JSON, read
	// for compatibility.
	rec := legacyTxRecord(t, &walTx{Transaction: Transaction{Seq: 1, Price: 50}})
	if rec[0] != '{' {
		t.Fatalf("v1 record starts with %q, want JSON", rec[0])
	}
	wr, err := decodeWALRecord(rec)
	if err != nil || attributed(&wr.Tx.Transaction) || wr.Kind != walKindTx || wr.Tx.Seq != 1 {
		t.Fatalf("v1 decode: %+v err=%v", wr, err)
	}

	// Attributed tx: one v2 envelope, the binary tx layout as payload
	// and the binary share table as attachment, bit-identical back.
	// Journals written before the binary layout hold a JSON payload
	// with the shares stripped; it decodes to the same row.
	tx := attributedTx(2, 123.456, stakes)
	for _, c := range []struct {
		name string
		rec  []byte
		open byte
	}{
		{"binary", encodeRecord(t, &walTx{Transaction: tx}), walTxTag},
		{"json-v2", legacyTxRecord(t, &walTx{Transaction: tx}), '{'},
	} {
		ver, payload, table, err := store.DecodeRecord(c.rec)
		if err != nil || ver != 2 {
			t.Fatalf("%s: store decode: ver=%d err=%v", c.name, ver, err)
		}
		if payload[0] != c.open {
			t.Fatalf("%s: payload opens with %#x, want %#x", c.name, payload[0], c.open)
		}
		if len(table) == 0 {
			t.Fatalf("%s: empty attribution table attachment", c.name)
		}
		wr, err = decodeWALRecord(c.rec)
		if err != nil || !attributed(&wr.Tx.Transaction) {
			t.Fatalf("%s: v2 decode: %+v err=%v", c.name, wr, err)
		}
		got := wr.Tx.Transaction
		if math.Float64bits(got.BrokerShare) != math.Float64bits(tx.BrokerShare) {
			t.Fatalf("%s: broker share %x, want %x", c.name, math.Float64bits(got.BrokerShare), math.Float64bits(tx.BrokerShare))
		}
		for i := range tx.Shares {
			if got.Shares[i] != tx.Shares[i] {
				t.Fatalf("%s: share %d = %+v, want %+v", c.name, i, got.Shares[i], tx.Shares[i])
			}
		}
		if !conservesExactly(&got) {
			t.Fatalf("%s: recovered row does not conserve exactly", c.name)
		}
	}

	// The legacy JSON payload never carried the attribution.
	_, payload, _, _ := store.DecodeRecord(legacyTxRecord(t, &walTx{Transaction: tx}))
	var stripped walRecord
	if err := json.Unmarshal(payload, &stripped); err != nil {
		t.Fatal(err)
	}
	if stripped.Tx.Shares != nil || stripped.Tx.BrokerShare != 0 {
		t.Fatal("attribution leaked into the JSON payload")
	}

	// The encoder has no bare-v1 branch: a sale without a table is
	// refused, not written in a form recovery would misread.
	if _, err := encodeWALTx(&walTx{Transaction: Transaction{Seq: 3, Price: 50}}); !errors.Is(err, errWALTx) {
		t.Fatalf("sale without attribution encoded: err = %v", err)
	}

	// Unknown kinds are decode errors, not silent no-ops.
	bad, _ := json.Marshal(walRecord{Kind: "mystery"})
	if _, err := decodeWALRecord(bad); err == nil {
		t.Fatal("unknown record kind accepted")
	}
}

func TestDurableRecoveryRejectsMixedEpoch(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stakes, _ := validStakes([]SellerStake{{ID: "a", Weight: 1}, {ID: "b", Weight: 1}})
	v2rec := encodeRecord(t, &walTx{Transaction: attributedTx(1, 100, stakes)})
	v1rec := legacyTxRecord(t, &walTx{Transaction: Transaction{Seq: 2, Price: 40, Stamp: Stamp{Logical: 2}}})
	if err := d.st.Append(v2rec); err != nil {
		t.Fatal(err)
	}
	if err := d.st.Append(v1rec); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery must refuse the downgraded journal outright.
	if _, _, err := OpenDurableLedger(dir, store.Options{}); !errors.Is(err, errMixedEpoch) {
		t.Fatalf("mixed-epoch journal recovered: err = %v", err)
	}
}

// TestWriteEpochFence: the fence lets a bare v1 sale through until the
// ledger journals a sale of its own — always v2 — and refuses one after.
func TestWriteEpochFence(t *testing.T) {
	b := testBroker(t)
	d, rs, err := OpenDurableLedger(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b.AttachDurableLedger(d, rs)
	v1rec := legacyTxRecord(t, &walTx{Transaction: Transaction{Seq: 2, Price: 40, Stamp: Stamp{Logical: 2}}})
	if _, err := decodeAfter(v1rec, d.sawV2); err != nil {
		t.Fatalf("v1 before v2: %v", err)
	}
	if _, err := b.BuyAtPointContext(context.Background(), ml.LinearRegression, 0.1); err != nil {
		t.Fatal(err)
	}
	if !d.sawV2 {
		t.Fatal("journaling a sale did not latch the fence")
	}
	stakes, _ := validStakes([]SellerStake{{ID: "a", Weight: 1}})
	if _, err := decodeAfter(encodeRecord(t, &walTx{Transaction: attributedTx(3, 10, stakes)}), true); err != nil {
		t.Fatalf("v2 after v2: %v", err)
	}
	if _, err := decodeAfter(v1rec, d.sawV2); !errors.Is(err, errMixedEpoch) {
		t.Fatalf("v1 after v2: err = %v, want errMixedEpoch", err)
	}
}

func TestFollowerRejectsEpochDowngrade(t *testing.T) {
	b := testBroker(t)
	d, rs, err := OpenDurableLedger(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.SetFollower("leader:0")
	b.AttachDurableLedger(d, rs)
	fa := NewFollowerApplier(b, d)

	stakes, _ := validStakes([]SellerStake{{ID: "a", Weight: 3}, {ID: "b", Weight: 1}})
	stakesRec, _ := json.Marshal(walRecord{Kind: walKindStakes, Stakes: stakes})
	if err := fa.ApplyRecords([][]byte{stakesRec}); err != nil {
		t.Fatal(err)
	}
	got := b.SellerStakes()
	if len(got) != 2 || got[0].Weight != 0.75 {
		t.Fatalf("replicated stakes not published: %v", got)
	}

	v2rec := encodeRecord(t, &walTx{Transaction: attributedTx(1, 100, stakes)})
	if err := fa.ApplyRecords([][]byte{v2rec}); err != nil {
		t.Fatal(err)
	}
	rep := d.mem.attributionTotals()
	if rep.AttributedRows != 1 || rep.ExactViolations != 0 {
		t.Fatalf("applied v2 row: %+v", rep)
	}
	framesAfterV2 := fa.Frames()

	v1rec := legacyTxRecord(t, &walTx{Transaction: Transaction{Seq: 2, Price: 40, Stamp: Stamp{Logical: 2}}})
	if err := fa.ApplyRecords([][]byte{v1rec}); !errors.Is(err, errMixedEpoch) {
		t.Fatalf("downgraded record applied: err = %v", err)
	}
	if fa.Frames() != framesAfterV2 {
		t.Fatal("rejected record advanced the frame cursor")
	}
	if rows, _, _ := d.mem.totals(); rows != 1 {
		t.Fatalf("rejected record filed in the ledger: %d rows", rows)
	}
}
