package market_test

// Throughput benchmarks for the lock-free purchase hot path. The
// Serial variants are the single-goroutine baselines the acceptance
// bar compares against: at GOMAXPROCS=8, BenchmarkBrokerParallelBuy is
// expected to clear 3× BenchmarkBrokerSerialBuy on the same fixture,
// since quotes and buys no longer serialize on Broker.mu. Serving speed
// over HTTP is measured by the perfbench module (docs/performance.md).

import (
	"context"
	"testing"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
)

// benchFixture returns a fresh broker and a mid-menu δ.
func benchFixture(b *testing.B) (*market.Broker, float64) {
	b.Helper()
	br := markettest.Broker(b, 1)
	menu := markettest.Menu(b, br)
	return br, menu[len(menu)/2].Delta
}

func BenchmarkBrokerSerialBuy(b *testing.B) {
	br, delta := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.BuyAtPointContext(context.Background(), markettest.Model, delta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrokerParallelBuy(b *testing.B) {
	br, delta := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := br.BuyAtPointContext(context.Background(), markettest.Model, delta); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkBrokerSerialQuote(b *testing.B) {
	br, delta := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := br.QuoteContext(context.Background(), markettest.Model, delta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrokerParallelQuote(b *testing.B) {
	br, delta := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := br.QuoteContext(context.Background(), markettest.Model, delta); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkBrokerParallelMixed interleaves the three buy options with
// quotes and menu reads — the shape of real marketplace traffic.
func BenchmarkBrokerParallelMixed(b *testing.B) {
	br, delta := benchFixture(b)
	menu := markettest.Menu(b, br)
	cheapest, best := menu[0], menu[len(menu)-1]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			var err error
			switch i % 5 {
			case 0:
				_, err = br.BuyAtPointContext(context.Background(), markettest.Model, delta)
			case 1:
				_, _, err = br.QuoteContext(context.Background(), markettest.Model, delta)
			case 2:
				_, err = br.BuyWithErrorBudgetForContext(context.Background(), markettest.Model, "", cheapest.ExpectedError)
			case 3:
				_, err = br.BuyWithPriceBudgetContext(context.Background(), markettest.Model, best.Price)
			default:
				_, err = br.PriceErrorCurveFor(markettest.Model, "")
			}
			if err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
