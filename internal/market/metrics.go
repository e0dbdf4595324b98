package market

import "github.com/datamarket/mbp/internal/obs"

// Serving-path metrics, registered on the process-wide registry so
// cmd/mbpmarket's /metrics endpoint surfaces broker activity without
// any extra wiring. Counters aggregate across brokers; per-listing
// resolution counts live on the Exchange (see exchange.go).
var (
	// metQuotes counts successful price previews (no sale).
	metQuotes = obs.Default.Counter("market.quotes_total")
	// metPurchases counts executed sales across all buy options.
	metPurchases = obs.Default.Counter("market.purchases_total")
	// metRejected counts buy attempts refused for any reason (unknown
	// model, out-of-range δ, budget too small/tight, unknown ϵ).
	metRejected = obs.Default.Counter("market.buys_rejected_total")
	// metRevenue is gross revenue across all brokers, before the
	// commission split.
	metRevenue = obs.Default.Gauge("market.revenue_total")
	// metReplayed counts purchases answered from the idempotency
	// replay cache: a client retry that would have double-charged
	// without it.
	metReplayed = obs.Default.Counter("market.buys_replayed_total")
	// metCanceled counts sales aborted mid-flight by context
	// cancellation or deadline expiry — allocated but never charged.
	metCanceled = obs.Default.Counter("market.buys_canceled_total")
	// metCurveOpt times the full publish step: revenue DP plus curve
	// construction and arbitrage-freeness certification.
	metCurveOpt = obs.Default.Histogram("market.curve_optimize_seconds", obs.LatencyBuckets())
	// metListings is the number of listings currently on the exchange.
	metListings = obs.Default.Gauge("exchange.listings")

	// metPersistFailed counts sales aborted because the durable journal
	// refused the record — the buyer was not charged (see
	// ErrSaleNotRecorded).
	metPersistFailed = obs.Default.Counter("market.sales_persist_failed_total")
	// metStoreAppends / metStoreFsyncs / metStoreAppendLatency observe
	// the WAL write path behind the durable ledger (internal/store is
	// stdlib-only, so the wiring lives here via store.Hooks). Appends
	// take tens of microseconds, below LatencyBuckets' first bound, so
	// their histogram doubles from 1µs to about 1s: one append lands in
	// a bucket of its own size, and the auditor's 0.25s append ceiling
	// sits inside the range.
	metStoreAppends       = obs.Default.Counter("store.appends_total")
	metStoreFsyncs        = obs.Default.Counter("store.fsyncs_total")
	metStoreAppendLatency = obs.Default.Histogram("store.append_seconds", obs.ExpBuckets(1e-6, 2, 21))
	// store.recovery_* gauges are set once per process at
	// OpenDurableLedger and describe what startup recovery rebuilt.
	metStoreRecoveryRecords   = obs.Default.Gauge("store.recovery_records")
	metStoreRecoverySegments  = obs.Default.Gauge("store.recovery_segments")
	metStoreRecoveryTruncated = obs.Default.Gauge("store.recovery_truncated_bytes")
	metStoreRecoverySeconds   = obs.Default.Gauge("store.recovery_seconds")
)
