package market

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/pricing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	b := testBroker(t)
	var buf bytes.Buffer
	if err := b.SaveOffers(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh broker over the same seller, warm-started from the dump.
	b2, err := NewBroker(b.seller, noise.Gaussian{}, 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.LoadOffers(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// The restored broker publishes the identical menu.
	m1, err := b.PriceErrorCurve(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b2.PriceErrorCurve(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Fatalf("menu sizes %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("menu row %d differs: %+v vs %+v", i, m1[i], m2[i])
		}
	}
	// And sells.
	if _, err := b2.BuyAtPointContext(context.Background(), ml.LinearRegression, 0.1); err != nil {
		t.Fatal(err)
	}
	// And its restored optimum matches.
	o1, _ := b.Optimal(ml.LinearRegression)
	o2, _ := b2.Optimal(ml.LinearRegression)
	for i := range o1.W {
		if o1.W[i] != o2.W[i] {
			t.Fatal("restored weights differ")
		}
	}
}

func TestRestoreOfferValidation(t *testing.T) {
	b := testBroker(t)
	snap, err := b.SnapshotOffer(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Broker {
		nb, err := NewBroker(b.seller, noise.Gaussian{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return nb
	}

	if err := fresh().RestoreOffer(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	s := *snap
	s.Curve = nil
	if err := fresh().RestoreOffer(&s); err == nil {
		t.Fatal("missing curve accepted")
	}
	s = *snap
	s.Weights = nil
	if err := fresh().RestoreOffer(&s); err == nil {
		t.Fatal("missing weights accepted")
	}
	s = *snap
	s.Weights = []float64{1, 2}
	if err := fresh().RestoreOffer(&s); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	s = *snap
	s.Epsilon = "nope"
	if err := fresh().RestoreOffer(&s); err == nil {
		t.Fatal("unknown epsilon accepted")
	}
	// Duplicate restore.
	nb := fresh()
	if err := nb.RestoreOffer(snap); err != nil {
		t.Fatal(err)
	}
	if err := nb.RestoreOffer(snap); err == nil {
		t.Fatal("duplicate restore accepted")
	}
}

func TestSnapshotUnknownModel(t *testing.T) {
	b := testBroker(t)
	if _, err := b.SnapshotOffer(ml.LinearSVM); err == nil {
		t.Fatal("unknown model snapshot accepted")
	}
}

func TestLoadOffersRejectsGarbage(t *testing.T) {
	b := testBroker(t)
	if err := b.LoadOffers(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestSaveLoadOffersExtras: extra error functions survive the full
// SaveOffers → JSON → LoadOffers path, not just the in-process
// snapshot round-trip.
func TestSaveLoadOffersExtras(t *testing.T) {
	b := multiEpsBroker(t)
	var buf bytes.Buffer
	if err := b.SaveOffers(&buf); err != nil {
		t.Fatal(err)
	}
	b2, err := NewBroker(b.seller, noise.Gaussian{}, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.LoadOffers(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	want, err := b.Epsilons(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b2.Epsilons(ml.LogisticRegression)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("epsilons %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epsilons %v, want %v", got, want)
		}
	}
}

// TestLoadOffersTruncatedDump: a dump cut off mid-stream (short write,
// partial download) fails with a decode error — never a panic, never a
// half-restored broker.
func TestLoadOffersTruncatedDump(t *testing.T) {
	b := testBroker(t)
	var buf bytes.Buffer
	if err := b.SaveOffers(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()
	for _, cut := range []int{1, len(dump) / 4, len(dump) / 2, len(dump) - 2} {
		nb, err := NewBroker(b.seller, noise.Gaussian{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = nb.LoadOffers(bytes.NewReader(dump[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !strings.Contains(err.Error(), "decoding offers") {
			t.Fatalf("truncation at %d: %v, want a decode error", cut, err)
		}
		if len(nb.Models()) != 0 {
			t.Fatalf("truncation at %d half-restored %v", cut, nb.Models())
		}
	}
}

// TestLoadOffersCorruptDump: structurally valid JSON with broken
// content (wrong types, unknown epsilon names) is rejected with a
// wrapped error, not a panic.
func TestLoadOffersCorruptDump(t *testing.T) {
	b := testBroker(t)
	var buf bytes.Buffer
	if err := b.SaveOffers(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()

	fresh := func() *Broker {
		nb, err := NewBroker(b.seller, noise.Gaussian{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return nb
	}

	// Type confusion: weights as strings.
	mangled := strings.Replace(dump, `"weights": [`, `"weights": ["oops",`, 1)
	if err := fresh().LoadOffers(strings.NewReader(mangled)); err == nil {
		t.Fatal("string weights accepted")
	}

	// Unknown default epsilon name reaches loss.ByName, which must
	// surface as a wrapped error identifying the restore step.
	mangled = strings.Replace(dump, `"epsilon": "`, `"epsilon": "no-such-loss-`, 1)
	err := fresh().LoadOffers(strings.NewReader(mangled))
	if err == nil || !strings.Contains(err.Error(), "restoring snapshot") {
		t.Fatalf("unknown epsilon: %v", err)
	}

	// Unknown extras key.
	var f offersFile
	if err := json.Unmarshal([]byte(dump), &f); err != nil {
		t.Fatal(err)
	}
	snaps := f.Offers
	snaps[0].Extras = map[string]*pricing.Transform{"no-such-loss": snaps[0].Transform}
	raw, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	err = fresh().LoadOffers(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "extras") {
		t.Fatalf("unknown extras epsilon: %v", err)
	}

	// A named extra with a null transform.
	snaps[0].Extras = map[string]*pricing.Transform{"absolute": nil}
	raw, err = json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh().LoadOffers(bytes.NewReader(raw)); err == nil {
		t.Fatal("nil extra transform accepted")
	}
}

func TestRestoredOfferSLA(t *testing.T) {
	b := testBroker(t)
	snap, err := b.SnapshotOffer(ml.LinearRegression)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBroker(b.seller, noise.Gaussian{}, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.RestoreOffer(snap); err != nil {
		t.Fatal(err)
	}
	rep, err := b2.VerifySLA(ml.LinearRegression, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(8); v > 1 {
		t.Fatalf("restored offer violates SLA: %d rows", v)
	}
}
