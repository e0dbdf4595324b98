package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/store"
)

// TestHealthzChecks: /healthz reports 200 ok while every registered
// probe passes, flips to 503 degraded (with the failure spelled out
// per check) when one fails, and recovers when the probe does.
func TestHealthzChecks(t *testing.T) {
	var failWith error
	srv := New(markettest.Broker(t, 3),
		WithHealthCheck("store", func() error { return failWith }),
		WithHealthCheck("always-ok", func() error { return nil }))
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	var body struct {
		Status        string            `json:"status"`
		UptimeSeconds float64           `json:"uptimeSeconds"`
		Checks        map[string]string `json:"checks"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &body)
	if body.Status != "ok" || body.Checks["store"] != "ok" || body.Checks["always-ok"] != "ok" {
		t.Fatalf("healthy response %+v", body)
	}

	failWith = errors.New("journal failed: injected")
	getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable, &body)
	if body.Status != "degraded" || !strings.Contains(body.Checks["store"], "injected") {
		t.Fatalf("degraded response %+v", body)
	}
	if body.Checks["always-ok"] != "ok" {
		t.Fatalf("healthy check reported %q alongside a failing one", body.Checks["always-ok"])
	}

	failWith = nil
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &body)
	if body.Status != "ok" {
		t.Fatalf("recovered response %+v", body)
	}
}

// TestHealthzWithoutChecks: no probes registered keeps the original
// liveness-only handler.
func TestHealthzWithoutChecks(t *testing.T) {
	ts := newTestServer(t)
	var body struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &body)
	if body.Status != "ok" {
		t.Fatalf("healthz reported %+v", body)
	}
}

// TestDrainHooksRunInOrder: hooks run in registration order and the
// first failure aborts the chain with the hook named in the error.
func TestDrainHooksRunInOrder(t *testing.T) {
	var ran []string
	srv := New(markettest.Broker(t, 3),
		WithDrainHook("flush", func(context.Context) error { ran = append(ran, "flush"); return nil }),
		WithDrainHook("compact", func(context.Context) error { ran = append(ran, "compact"); return nil }))
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 || ran[0] != "flush" || ran[1] != "compact" {
		t.Fatalf("hooks ran as %v", ran)
	}

	boom := errors.New("disk gone")
	srv = New(markettest.Broker(t, 3),
		WithDrainHook("flush", func(context.Context) error { return boom }),
		WithDrainHook("never", func(context.Context) error { t.Fatal("hook ran after a failure"); return nil }))
	err := srv.Drain(context.Background())
	if err == nil || !strings.Contains(err.Error(), "flush") {
		t.Fatalf("drain error %v, want the failing hook named", err)
	}
}

// TestBuyStorePersistFailure503: when the journal refuses the write,
// /buy surfaces 503 (retryable, broker's fault) and the ledger shows
// no sale — the buyer was not charged for an unrecorded purchase.
func TestBuyStorePersistFailure503(t *testing.T) {
	b := markettest.Broker(t, 3)
	d, rs, err := market.OpenDurableLedger(t.TempDir(), store.Options{
		Faults: &store.Faults{
			Write: func([]byte) (int, error) { return 0, errors.New("injected: disk full") },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	b.AttachDurableLedger(d, rs)

	ts := httptest.NewServer(New(b).Mux())
	defer ts.Close()
	menu, err := b.PriceErrorCurve(markettest.Model)
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Error string `json:"error"`
	}
	postJSON(t, ts.URL+"/buy", map[string]any{
		"model": markettest.Model.String(),
		"delta": menu[0].Delta,
	}, http.StatusServiceUnavailable, &resp)
	if !strings.Contains(resp.Error, "not recorded") {
		t.Fatalf("error body %q", resp.Error)
	}
	if got := len(b.Ledger()); got != 0 {
		t.Fatalf("%d ledger rows after a refused persist", got)
	}
}

// TestHealthzReflectsStoreFailure wires a real durable ledger's Healthy
// into /healthz the way cmd/mbpmarket does and drives the store into a
// latched failure via a torn write.
func TestHealthzReflectsStoreFailure(t *testing.T) {
	b := markettest.Broker(t, 3)
	torn := false
	d, rs, err := market.OpenDurableLedger(t.TempDir(), store.Options{
		Faults: &store.Faults{
			Write: func(frame []byte) (int, error) {
				if torn {
					return len(frame) / 2, errors.New("injected: torn")
				}
				return len(frame), nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	b.AttachDurableLedger(d, rs)

	ts := httptest.NewServer(New(b, WithHealthCheck("store", d.Healthy)).Mux())
	defer ts.Close()
	menu, err := b.PriceErrorCurve(markettest.Model)
	if err != nil {
		t.Fatal(err)
	}

	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); err != nil {
		t.Fatal(err)
	}
	torn = true
	if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); !errors.Is(err, market.ErrSaleNotRecorded) {
		t.Fatalf("torn sale returned %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d after a latched store failure", resp.StatusCode)
	}
	var body struct {
		Checks map[string]string `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Checks["store"] == "ok" || body.Checks["store"] == "" {
		t.Fatalf("store check reported %q", body.Checks["store"])
	}
}
