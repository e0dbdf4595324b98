package market

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stamp orders a ledger row in time two ways: Logical is the broker's
// monotonic logical clock (total order over recorded sales, gap-free
// even when wall clocks jump), and Wall is the wall-clock instant the
// sale was recorded, for correlating WAL rows with /debug/traces and
// the access log. Determinism tests compare Seq/price/weights and
// ignore Wall; the clock behind it is injectable via Broker.SetClock.
type Stamp struct {
	// Logical is the broker-local logical clock value, 1-based.
	Logical uint64 `json:"logical"`
	// Wall is the recording wall-clock time.
	Wall time.Time `json:"wall"`
}

// pendingReplay carries the idempotency entry recorded atomically with
// its transaction: journaling key and purchase in the same WAL frame
// means a crash can never persist the charge but forget the key (a
// double-charge on retry) or vice versa.
type pendingReplay struct {
	key string
	p   *Purchase
}

// ledgerView is an immutable ledger snapshot: the transactions in Seq
// order, tagged with the record count it was built at so repeated
// readers can reuse it.
type ledgerView struct {
	version uint64
	txs     []Transaction
}

// ledgerShardCount is the number of independent ledger stripes. Sales
// contend only on the stripe their sequence number hashes to, so up to
// this many appends proceed in parallel; a power of two keeps the
// modulo a mask.
const ledgerShardCount = 16

// shardedLedger is the broker's transaction log: the in-memory rows
// every read is served from, whether or not a DurableLedger journals
// them. It records transactions with one atomic sequence counter and
// per-shard mutexes. Allocating a sequence number is a single atomic
// add; filing the row locks only its stripe. Readers merge the
// stripes back into Seq order on demand — the write-heavy purchase path
// pays O(1), the read-side view() pays the sort, and a cache keyed by
// the recorded-row count means it pays it only when something new was
// actually recorded (repeated /metrics or Ledger() polls between sales
// are O(1) pointer loads).
type shardedLedger struct {
	seq atomic.Uint64
	// recorded counts fully filed rows; it is the cache version, bumped
	// only after the row is visible in its stripe.
	recorded atomic.Uint64
	cache    atomic.Pointer[ledgerView]
	shards   [ledgerShardCount]ledgerShard
}

// ledgerShard is one stripe, padded out to its own cache line so the
// stripe locks do not false-share.
type ledgerShard struct {
	mu    sync.Mutex
	txs   []Transaction
	total float64
	// Attribution running totals, accumulated at append time in row
	// order (the same order attributionTotals re-sums in, so the audit
	// comparison is bitwise, not tolerance-based): attributed revenue
	// per seller, the broker's commission, and the gross of legacy rows
	// with no attribution table.
	bySeller map[string]float64
	broker   float64
	legacy   float64
	_        [24]byte
}

// nextSeq allocates the next 1-based sequence number. The number is
// both the row's ledger position and the id of the RNG stream that
// draws the sale's noise (see Broker.sell).
func (l *shardedLedger) nextSeq() uint64 {
	return l.seq.Add(1)
}

// releaseSeq hands back an allocated sequence number whose sale was
// abandoned before recording (e.g. the buyer's context expired during
// the noise draw). It succeeds only while seq is still the newest
// allocation — a single CAS — so a canceled sale in a quiet moment
// leaves no gap, and under concurrent traffic the number is simply
// skipped (reported false) rather than ever reused for a second sale.
// A journaled broker releases through DurableLedger.releaseSeq, which
// journals the skip when this reports false.
func (l *shardedLedger) releaseSeq(seq uint64) bool {
	return l.seq.CompareAndSwap(seq, seq-1)
}

// file places a transaction under its sequence number's stripe and
// bumps the cache version once the row is visible there. It cannot
// fail; on a journaled broker DurableLedger.record calls it only after
// the journal accepted the row.
func (l *shardedLedger) file(tx Transaction) {
	sh := &l.shards[uint64(tx.Seq)%ledgerShardCount]
	sh.mu.Lock()
	sh.txs = append(sh.txs, tx)
	sh.total += tx.Price
	sh.fileSplitLocked(&tx)
	sh.mu.Unlock()
	l.recorded.Add(1)
}

// fileSplitLocked folds one row's attribution table into the stripe's
// running totals. Callers hold the stripe lock.
func (sh *ledgerShard) fileSplitLocked(tx *Transaction) {
	if tx.Shares == nil && tx.BrokerShare == 0 {
		sh.legacy += tx.Price
		return
	}
	if sh.bySeller == nil {
		sh.bySeller = make(map[string]float64)
	}
	for i := range tx.Shares {
		sh.bySeller[tx.Shares[i].SellerID] += tx.Shares[i].Amount
	}
	sh.broker += tx.BrokerShare
}

// view returns the Seq-ordered snapshot, rebuilding it only when rows
// were recorded since the cached one. The returned value is shared and
// immutable — callers must not mutate it. The version is read before
// the stripes are merged, so a concurrent writer can at worst make the
// cached snapshot carry a few extra fully-filed rows under a stale
// version — the next read notices the version moved and rebuilds;
// readers never see a missing row for a version they observed.
func (l *shardedLedger) view() *ledgerView {
	version := l.recorded.Load()
	if v := l.cache.Load(); v != nil && v.version == version {
		return v
	}
	out := make([]Transaction, 0, version)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		out = append(out, sh.txs...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	v := &ledgerView{version: version, txs: out}
	l.cache.Store(v)
	return v
}

// totals reports the row count and two gross figures maintained by
// independent code paths: a re-sum over the stored rows themselves vs.
// the running per-stripe totals accumulated at append time. Comparing
// them is the conservation audit.
//
// It deliberately bypasses view(): the auditor issues it on a tight
// cadence against the live broker, building the merged snapshot is
// O(n log n) plus an n-row allocation, and the cache never helps a live
// market (every recorded sale bumps the version). Instead each stripe
// is scanned in place under its lock — the gross re-sum walks the raw
// rows in append order, the stripe figure reads the running total, and
// because both come from the same locked read the pair stays comparable
// while sales land mid-call and can only disagree if the append-time
// accounting itself is broken.
func (l *shardedLedger) totals() (int, float64, float64) {
	var rows int
	var gross, stripeGross float64
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		rows += len(sh.txs)
		for j := range sh.txs {
			gross += sh.txs[j].Price
		}
		stripeGross += sh.total
		sh.mu.Unlock()
	}
	return rows, gross, stripeGross
}

// splitTotals returns the running attribution totals accumulated at
// append time: cumulative attributed revenue per seller, the broker's
// cumulative commission, and the gross of legacy rows that carry no
// attribution table (recorded before the v2 upgrade). Each stripe is
// read under its lock — O(sellers) per stripe, no row walk.
func (l *shardedLedger) splitTotals() (map[string]float64, float64, float64) {
	bySeller := make(map[string]float64)
	var broker, legacy float64
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for id, amt := range sh.bySeller {
			bySeller[id] += amt
		}
		broker += sh.broker
		legacy += sh.legacy
		sh.mu.Unlock()
	}
	return bySeller, broker, legacy
}

// attributionTotals re-derives the per-seller totals from the rows
// themselves and cross-checks them against the running figures — the
// attribution half of the conservation audit (see AttributionReport).
// Like totals() it bypasses the view cache and scans each stripe in
// place under its lock: the rows are re-summed in append order — the exact order the running totals
// accumulated in — so a healthy ledger's running and re-summed figures
// agree bitwise, and any difference at all is an accounting bug, not
// float noise. Per-row conservation (Σ shares + broker == price) is
// checked with zero tolerance; the quantized split guarantees it
// exactly.
func (l *shardedLedger) attributionTotals() AttributionReport {
	rep := AttributionReport{Sellers: make(map[string]float64)}
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		resum := make(map[string]float64, len(sh.bySeller))
		var resumBroker, resumLegacy float64
		for j := range sh.txs {
			tx := &sh.txs[j]
			rep.Rows++
			rep.Gross += tx.Price
			if !conservesExactly(tx) {
				rep.ExactViolations++
			}
			if tx.Shares == nil && tx.BrokerShare == 0 {
				resumLegacy += tx.Price
				continue
			}
			rep.AttributedRows++
			for k := range tx.Shares {
				resum[tx.Shares[k].SellerID] += tx.Shares[k].Amount
			}
			resumBroker += tx.BrokerShare
		}
		if resumBroker != sh.broker {
			rep.ResumMismatches++
		}
		if resumLegacy != sh.legacy {
			rep.ResumMismatches++
		}
		if len(resum) != len(sh.bySeller) {
			rep.ResumMismatches++
		} else {
			for id, amt := range resum {
				if running, ok := sh.bySeller[id]; !ok || running != amt {
					rep.ResumMismatches++
				}
			}
		}
		for id, amt := range sh.bySeller {
			rep.Sellers[id] += amt
		}
		rep.Broker += sh.broker
		rep.Legacy += sh.legacy
		sh.mu.Unlock()
	}
	return rep
}
