package audit

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/obs"
)

// BenchmarkSweep prices the auditor's duty cycle: one full sweep
// (arbitrage probes + attack search, conservation row scan, WAL
// checks) against a broker whose ledger already holds `rows` sales.
// The sweep clock advances a full interval per iteration so the
// conservation duty-cycle guard never defers — this is the worst-case
// per-sweep cost. It is reported against the production interval as
// duty_%, the share of one core the auditor takes from the serving
// path; CI fails if any ledger size reaches 1%.
func BenchmarkSweep(b *testing.B) {
	for _, rows := range []int{0, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			br := markettest.Broker(b, 1)
			menu, err := br.PriceErrorCurve(markettest.Model)
			if err != nil {
				b.Fatal(err)
			}
			delta := menu[len(menu)/2].Delta
			for i := 0; i < rows; i++ {
				if _, err := br.BuyAtPointContext(context.Background(), markettest.Model, delta); err != nil {
					b.Fatal(err)
				}
			}
			a := New(Config{
				Broker:   br,
				Seed:     1,
				Registry: obs.NewRegistry(),
				Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			now := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(a.Interval())
				a.Sweep(now)
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(a.Interval())*100, "duty_%")
		})
	}
}
