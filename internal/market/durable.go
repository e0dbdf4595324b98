package market

// This file is the broker's write-ahead journal: DurableLedger journals
// every transaction (and every permanently skipped sequence number)
// through a store.Store WAL before the in-memory sharded ledger — and
// therefore the buyer — sees it.
// Recovery replays the newest snapshot plus the WAL tail and rebuilds
// the exact pre-crash ledger, sequence counter, logical clock and
// unexpired idempotency entries.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/pricing"
	"github.com/datamarket/mbp/internal/store"
)

// WAL record kinds.
const (
	walKindTx     = "tx"
	walKindSkip   = "skip"
	walKindCurve  = "curve"
	walKindStakes = "stakes"
)

// walRecord is one journal entry. Kind "tx" carries a transaction
// (with its optional idempotency entry in the same frame — see
// pendingReplay); kind "skip" records a sequence number that was
// allocated, canceled under concurrent traffic, and could not be
// handed back, so recovery can account for the gap; kind "stakes"
// records a published attribution stake table so recovery and
// replicating followers resume splitting revenue over the same sellers.
//
// Record encoding is versioned at the store layer (store.DecodeRecord):
// a tx that carries an attribution table is written as a v2 envelope —
// this JSON document as the payload (with the tx's Shares/BrokerShare
// stripped) plus the binary share table as the attachment, in ONE WAL
// frame, so the sale and its attribution commit atomically. All other
// kinds, and pre-upgrade tx records, are bare (v1) JSON.
type walRecord struct {
	Kind   string        `json:"kind"`
	Tx     *walTx        `json:"tx,omitempty"`
	Seq    uint64        `json:"seq,omitempty"`
	Curve  *walCurve     `json:"curve,omitempty"`
	Stakes []SellerStake `json:"stakes,omitempty"`
}

// walCurve journals a repriced menu: the certified curve RepublishCurve
// accepted for a model. Recovery (and replicating followers) republish
// the newest one per model so a restarted or promoted broker serves the
// repriced menu, not the boot-time one.
type walCurve struct {
	Model  ml.Model        `json:"model"`
	Points []pricing.Point `json:"points"`
}

// walTx is a journaled transaction plus its idempotency entry.
type walTx struct {
	Transaction
	Replay *walReplay `json:"replay,omitempty"`
}

// walReplay is a journaled idempotency entry: enough to rebuild the
// original *Purchase after a restart without re-drawing noise — the
// sold weights travel with the key, so the replayed purchase is
// byte-identical to the original regardless of seed configuration.
type walReplay struct {
	Key       string    `json:"key"`
	Seq       int       `json:"seq"`
	W         []float64 `json:"w"`
	Mu        float64   `json:"mu"`
	TrainLoss float64   `json:"train_loss"`
	At        time.Time `json:"at"`
}

// ledgerState is the compaction snapshot payload: the full ledger (and
// the bookkeeping recovery needs) at the snapshot boundary, replacing
// every WAL record before it.
type ledgerState struct {
	MaxSeq  uint64        `json:"max_seq"`
	Logical uint64        `json:"logical"`
	Txs     []Transaction `json:"txs"`
	Skips   []uint64      `json:"skips,omitempty"`
	Replays []walReplay   `json:"replays,omitempty"`
	Curves  []walCurve    `json:"curves,omitempty"`
	// Stakes is the attribution stake table in force at the snapshot
	// boundary. Snapshot rows carry their attribution tables inline
	// (Transaction.Shares marshals to JSON), so only the live stakes
	// need snapshotting separately.
	Stakes []SellerStake `json:"stakes,omitempty"`
}

// RecoveredState summarizes what OpenDurableLedger rebuilt; Broker.
// AttachDurableLedger consumes it to resume serving where the previous
// process stopped.
type RecoveredState struct {
	// Stats are the raw storage-engine recovery stats.
	Stats store.RecoveryStats
	// Transactions and Skips count replayed rows by kind (snapshot
	// rows included).
	Transactions, Skips int
	// MaxSeq is the highest sequence number seen (sold or skipped);
	// the sequence counter resumes past it.
	MaxSeq uint64
	// Logical is the highest logical-clock stamp seen; the broker's
	// clock resumes past it.
	Logical uint64
	// Replays is the number of journaled idempotency entries found
	// (before TTL filtering at seed time).
	Replays int
	// Curves holds the newest journaled repriced curve per model;
	// AttachDurableLedger republishes them so the recovered broker
	// serves the repriced menu.
	Curves map[ml.Model][]pricing.Point
	// Stakes is the newest journaled attribution stake table (nil when
	// the journal predates multi-seller attribution);
	// AttachDurableLedger republishes it so the recovered broker keeps
	// splitting revenue over the same sellers.
	Stakes []SellerStake
	// Lost lists sequence numbers below MaxSeq with neither a
	// transaction nor a skip record: sales in flight at the crash,
	// allocated but never journaled — and therefore never acknowledged
	// to a buyer. Recovery treats them as skips so the invariant
	// "transactions ∪ skips ∪ lost = 1..MaxSeq" always holds and the
	// numbers are never reused.
	Lost []uint64
}

// DurableLedger is the write-through journal in front of a sharded
// ledger: every record is journaled to the WAL first and filed in the
// in-memory ledger (mem, which the attached broker reads directly)
// only after the journal acknowledged it, so an acknowledged sale is
// recoverable by construction (under FsyncAlways, durably so before
// the buyer hears about it).
type DurableLedger struct {
	mem shardedLedger
	st  *store.Store

	// mu guards the recovery bookkeeping kept for compaction snapshots.
	mu      sync.Mutex
	skips   []uint64
	replays map[string]walReplay
	curves  map[ml.Model][]pricing.Point
	// stakes is the newest journaled attribution stake table.
	stakes []SellerStake
	// sawV2 latches once an attributed (v2-envelope) transaction has
	// been journaled, recovered, or applied. A bare v1 tx arriving
	// after that is an epoch downgrade — some writer running the old
	// encoding — and is rejected rather than silently filed as legacy
	// gross, which would quietly leak sellers' revenue to the
	// pre-attribution bucket.
	sawV2 bool
}

// errMixedEpoch reports a v1 (pre-attribution) transaction encountered
// after v2 records: mixed-epoch downgrades are refused.
var errMixedEpoch = fmt.Errorf("market: v1 transaction after v2 attribution records (mixed-epoch downgrade)")

// noteTxEpoch enforces the downgrade fence for one tx record and
// records its epoch. v2 latches sawV2; a v1 tx after that errors.
func (d *DurableLedger) noteTxEpoch(isV2 bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if isV2 {
		d.sawV2 = true
		return nil
	}
	if d.sawV2 {
		return errMixedEpoch
	}
	return nil
}

// OpenDurableLedger opens (creating if needed) the journal in dir and
// replays it into a fresh ledger. The returned RecoveredState feeds
// Broker.AttachDurableLedger. Store metrics hooks are installed on top
// of any the caller provided.
func OpenDurableLedger(dir string, o store.Options) (*DurableLedger, *RecoveredState, error) {
	d := &DurableLedger{
		replays: make(map[string]walReplay),
		curves:  make(map[ml.Model][]pricing.Point),
	}
	rs := &RecoveredState{}

	userAppend, userFsync := o.Hooks.OnAppend, o.Hooks.OnFsync
	o.Hooks.OnAppend = func(el time.Duration) {
		metStoreAppends.Inc()
		metStoreAppendLatency.Observe(el.Seconds())
		if userAppend != nil {
			userAppend(el)
		}
	}
	o.Hooks.OnFsync = func() {
		metStoreFsyncs.Inc()
		if userFsync != nil {
			userFsync()
		}
	}

	track := func(seq, logical uint64) {
		if seq > rs.MaxSeq {
			rs.MaxSeq = seq
		}
		if logical > rs.Logical {
			rs.Logical = logical
		}
	}
	st, stats, err := store.Open(dir, o,
		func(r io.Reader) error {
			var snap ledgerState
			if err := json.NewDecoder(r).Decode(&snap); err != nil {
				return fmt.Errorf("market: decoding ledger snapshot: %w", err)
			}
			for _, tx := range snap.Txs {
				d.mem.file(tx)
				rs.Transactions++
				track(uint64(tx.Seq), tx.Stamp.Logical)
				if tx.Shares != nil || tx.BrokerShare != 0 {
					// Attributed rows in the snapshot put the journal in
					// the v2 epoch: later bare v1 tx records are a
					// downgrade.
					d.sawV2 = true
				}
			}
			if snap.Stakes != nil {
				d.stakes = snap.Stakes
			}
			for _, seq := range snap.Skips {
				d.skips = append(d.skips, seq)
				rs.Skips++
				track(seq, 0)
			}
			for _, rp := range snap.Replays {
				d.replays[rp.Key] = rp
			}
			for _, cv := range snap.Curves {
				d.curves[cv.Model] = cv.Points
			}
			track(snap.MaxSeq, snap.Logical)
			return nil
		},
		func(rec []byte) error {
			wr, isV2, err := decodeWALRecord(rec)
			if err != nil {
				return err
			}
			switch wr.Kind {
			case walKindTx:
				if err := d.noteTxEpoch(isV2); err != nil {
					return err
				}
				d.mem.file(wr.Tx.Transaction)
				rs.Transactions++
				track(uint64(wr.Tx.Seq), wr.Tx.Stamp.Logical)
				if rp := wr.Tx.Replay; rp != nil {
					d.replays[rp.Key] = *rp
				}
			case walKindSkip:
				d.skips = append(d.skips, wr.Seq)
				rs.Skips++
				track(wr.Seq, 0)
			case walKindCurve:
				d.curves[wr.Curve.Model] = wr.Curve.Points
			case walKindStakes:
				d.stakes = wr.Stakes
			}
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	d.st = st
	d.mem.seq.Store(rs.MaxSeq)
	rs.Stats = stats
	rs.Replays = len(d.replays)
	rs.Stakes = append([]SellerStake(nil), d.stakes...)
	rs.Curves = make(map[ml.Model][]pricing.Point, len(d.curves))
	for m, pts := range d.curves {
		rs.Curves[m] = pts
	}

	// Journal order is append order, not sequence order: a crash can
	// cut off a sale whose number is below a journaled one (allocated,
	// in flight, never acknowledged). Those numbers become implicit
	// skips — deterministically re-derivable on every open and carried
	// into compaction snapshots — so the ledger's accounted set stays
	// contiguous and a lost number is never resold.
	seen := make(map[uint64]bool, rs.Transactions+rs.Skips)
	for _, tx := range d.mem.view().txs {
		seen[uint64(tx.Seq)] = true
	}
	for _, sk := range d.skips {
		seen[sk] = true
	}
	for seq := uint64(1); seq <= rs.MaxSeq; seq++ {
		if !seen[seq] {
			rs.Lost = append(rs.Lost, seq)
		}
	}
	d.skips = append(d.skips, rs.Lost...)

	metStoreRecoveryRecords.Set(float64(stats.Records))
	metStoreRecoverySegments.Set(float64(stats.Segments))
	metStoreRecoveryTruncated.Set(float64(stats.TruncatedBytes))
	if stats.SnapshotLoaded {
		metStoreRecoverySnapshot.Set(1)
	} else {
		metStoreRecoverySnapshot.Set(0)
	}
	return d, rs, nil
}

// decodeWALRecord decodes one journaled record: the store-level
// envelope first (v1 bare JSON vs v2 payload+attribution table), then
// the JSON body, then — for v2 transactions — the binary share table,
// which is attached back onto the transaction. Both recovery and the
// follower applier read records through this single path, so the two
// can never disagree about what a record means. isV2Tx reports a
// transaction carried in a v2 envelope (the epoch fence's input).
func decodeWALRecord(rec []byte) (wr walRecord, isV2Tx bool, err error) {
	ver, payload, table, err := store.DecodeRecord(rec)
	if err != nil {
		return walRecord{}, false, fmt.Errorf("market: decoding wal record envelope: %w", err)
	}
	if err := json.Unmarshal(payload, &wr); err != nil {
		return walRecord{}, false, fmt.Errorf("market: decoding wal record: %w", err)
	}
	switch wr.Kind {
	case walKindTx:
		if wr.Tx == nil {
			return walRecord{}, false, fmt.Errorf("market: wal tx record without body")
		}
		if ver == 2 {
			brokerShare, shares, err := decodeShareTable(table)
			if err != nil {
				return walRecord{}, false, err
			}
			wr.Tx.Transaction.Shares = shares
			wr.Tx.Transaction.BrokerShare = brokerShare
			isV2Tx = true
		}
	case walKindSkip:
	case walKindCurve:
		if wr.Curve == nil {
			return walRecord{}, false, fmt.Errorf("market: wal curve record without body")
		}
	case walKindStakes:
		if wr.Stakes == nil {
			return walRecord{}, false, fmt.Errorf("market: wal stakes record without body")
		}
	default:
		return walRecord{}, false, fmt.Errorf("market: unknown wal record kind %q", wr.Kind)
	}
	return wr, isV2Tx, nil
}

// releaseSeq hands the number back when possible; when concurrent
// traffic already built on top of it, the permanent gap is journaled so
// recovery can tell a canceled sale from a lost row and prove the
// ledger prefix is still complete. A journal failure here is swallowed:
// the store has latched failed and every subsequent sale will refuse to
// record anyway.
func (d *DurableLedger) releaseSeq(seq uint64) {
	if d.mem.releaseSeq(seq) {
		return
	}
	if rec, err := json.Marshal(walRecord{Kind: walKindSkip, Seq: seq}); err == nil {
		if err := d.st.Append(rec); err == nil {
			d.mu.Lock()
			d.skips = append(d.skips, seq)
			d.mu.Unlock()
		}
	}
}

// record journals the transaction (and its idempotency entry, in the
// same frame) and files it in memory only after the journal accepted
// it. On a journal error nothing is filed and the sale must not be
// acknowledged; the error matches ErrSaleNotRecorded.
func (d *DurableLedger) record(ctx context.Context, tx Transaction, rep *pendingReplay) error {
	wtx := walTx{Transaction: tx}
	if rep != nil {
		wtx.Replay = &walReplay{
			Key:       rep.key,
			Seq:       rep.p.Seq,
			W:         rep.p.Instance.W,
			Mu:        rep.p.Instance.Mu,
			TrainLoss: rep.p.Instance.TrainLoss,
			At:        tx.Stamp.Wall,
		}
	}
	rec, err := encodeWALTx(&wtx)
	if err != nil {
		return fmt.Errorf("%w: encoding: %v", ErrSaleNotRecorded, err)
	}
	if err := d.noteTxEpoch(tx.Shares != nil || tx.BrokerShare != 0); err != nil {
		return fmt.Errorf("%w: %w", ErrSaleNotRecorded, err)
	}
	_, span := trace.Start(ctx, "store.append", "seq", strconv.Itoa(tx.Seq))
	err = d.st.Append(rec)
	span.End()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrSaleNotRecorded, err)
	}
	if rep != nil {
		d.mu.Lock()
		d.replays[rep.key] = *wtx.Replay
		d.mu.Unlock()
	}
	d.mem.file(tx)
	return nil
}

// encodeWALTx marshals a tx record for the journal. A transaction
// carrying an attribution table goes out as a v2 envelope: the JSON
// payload with Shares/BrokerShare stripped plus the binary share table
// as the attachment, one WAL frame, so the sale and its attribution
// commit (and replicate) atomically. A pre-attribution transaction
// stays bare v1 JSON — byte-identical to what old readers expect.
func encodeWALTx(wtx *walTx) ([]byte, error) {
	if wtx.Shares == nil && wtx.BrokerShare == 0 {
		return json.Marshal(walRecord{Kind: walKindTx, Tx: wtx})
	}
	table := encodeShareTable(wtx.BrokerShare, wtx.Shares)
	stripped := *wtx
	stripped.Shares = nil
	stripped.BrokerShare = 0
	payload, err := json.Marshal(walRecord{Kind: walKindTx, Tx: &stripped})
	if err != nil {
		return nil, err
	}
	return store.EncodeRecordV2(payload, table), nil
}

// journalStakes appends a stakes record so recovery and replicating
// followers resume splitting revenue over the same sellers. The newest
// table is also retained for compaction snapshots.
func (d *DurableLedger) journalStakes(stakes []SellerStake) error {
	rec, err := json.Marshal(walRecord{Kind: walKindStakes, Stakes: stakes})
	if err != nil {
		return fmt.Errorf("market: encoding stakes record: %w", err)
	}
	if err := d.st.Append(rec); err != nil {
		return err
	}
	d.mu.Lock()
	d.stakes = append([]SellerStake(nil), stakes...)
	d.mu.Unlock()
	return nil
}

// journalCurve appends a repriced-curve record so recovery and
// replicating followers republish the same certified menu. The newest
// points per model are also retained for compaction snapshots.
func (d *DurableLedger) journalCurve(m ml.Model, pts []pricing.Point) error {
	rec, err := json.Marshal(walRecord{Kind: walKindCurve, Curve: &walCurve{Model: m, Points: pts}})
	if err != nil {
		return fmt.Errorf("market: encoding curve record: %w", err)
	}
	if err := d.st.Append(rec); err != nil {
		return err
	}
	d.mu.Lock()
	d.curves[m] = pts
	d.mu.Unlock()
	return nil
}

// replayRows returns the journaled idempotency entries (a copy).
func (d *DurableLedger) replayRows() map[string]walReplay {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]walReplay, len(d.replays))
	for k, v := range d.replays {
		out[k] = v
	}
	return out
}

// Compact writes a snapshot of the full current ledger state and
// deletes the WAL segments it covers. Idempotency entries older than
// ReplayTTL are pruned from the snapshot (they could no longer be
// replayed anyway).
func (d *DurableLedger) Compact() error {
	v := d.mem.view()
	d.mu.Lock()
	state := ledgerState{
		MaxSeq:  d.mem.seq.Load(),
		Txs:     v.txs,
		Skips:   append([]uint64(nil), d.skips...),
		Replays: make([]walReplay, 0, len(d.replays)),
	}
	cutoff := time.Now().Add(-ReplayTTL)
	for key, rp := range d.replays {
		if rp.At.Before(cutoff) {
			delete(d.replays, key)
			continue
		}
		state.Replays = append(state.Replays, rp)
	}
	for m, pts := range d.curves {
		state.Curves = append(state.Curves, walCurve{Model: m, Points: pts})
	}
	state.Stakes = append([]SellerStake(nil), d.stakes...)
	d.mu.Unlock()
	sort.Slice(state.Curves, func(i, j int) bool { return state.Curves[i].Model < state.Curves[j].Model })
	sort.Slice(state.Replays, func(i, j int) bool { return state.Replays[i].At.Before(state.Replays[j].At) })
	for i := range v.txs {
		if l := v.txs[i].Stamp.Logical; l > state.Logical {
			state.Logical = l
		}
	}
	return d.st.Snapshot(func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&state)
	})
}

// Flush forces outstanding journal appends to disk (the drain path).
func (d *DurableLedger) Flush() error { return d.st.Flush() }

// FsyncLag reports how long the journal's oldest unsynced append has
// waited for durability (see store.Store.FsyncLag); the market auditor
// watches it.
func (d *DurableLedger) FsyncLag() time.Duration { return d.st.FsyncLag() }

// Healthy reports nil while the journal accepts appends; /healthz
// surfaces the failure otherwise.
func (d *DurableLedger) Healthy() error { return d.st.Healthy() }

// Close flushes and closes the journal.
func (d *DurableLedger) Close() error { return d.st.Close() }

// Dir returns the journal directory.
func (d *DurableLedger) Dir() string { return d.st.Dir() }

// Store exposes the underlying WAL engine; the replication layer ships
// and installs frames through it.
func (d *DurableLedger) Store() *store.Store { return d.st }

// AttachDurableLedger swaps the broker's in-memory ledger for d's,
// journals every later sale through d, and resumes serving state from
// the recovered journal: the sequence counter and logical clock
// continue past their pre-crash maxima, and journaled idempotency
// entries still inside ReplayTTL are re-seeded into the replay cache,
// so a client retry that straddles the restart replays the original
// sale — same Seq, same weights, same attribution — instead of being
// charged twice.
//
// Call it during startup, after offers are restored and before the
// broker serves traffic; it is not safe to use concurrently with buys.
func (b *Broker) AttachDurableLedger(d *DurableLedger, rs *RecoveredState) {
	b.ledger, b.journal = &d.mem, d
	if rs == nil {
		return
	}
	if cur := b.logical.Load(); rs.Logical > cur {
		b.logical.Store(rs.Logical)
	}
	v := d.mem.view()
	for key, rp := range d.replayRows() {
		i := sort.Search(len(v.txs), func(i int) bool { return v.txs[i].Seq >= rp.Seq })
		if i >= len(v.txs) || v.txs[i].Seq != rp.Seq {
			continue // journal damage already surfaced at Open; skip defensively
		}
		b.replay.Seed(key, purchaseFromReplay(v.txs[i], rp), rp.At)
	}
	// Republish the newest journaled repriced curve per model, without
	// re-journaling it. Best effort: a curve for a model not on this
	// broker's menu (or whose grid no longer matches) is skipped — the
	// boot-time certified menu keeps serving.
	for m, pts := range rs.Curves {
		if c, err := pricing.NewCurve(pts); err == nil {
			b.republishCurve(m, c, false)
		}
	}
	// Resume the recovered attribution stake table, without
	// re-journaling it (the journal already holds it). A journal that
	// predates multi-seller attribution has no stakes record; the
	// founder-only table NewBroker seeded keeps serving.
	if len(rs.Stakes) > 0 {
		_ = b.applyStakes(rs.Stakes, false)
	}
}

// purchaseFromReplay rebuilds the original *Purchase from a ledger row
// plus its journaled idempotency entry — byte-identical weights, no
// fresh noise draw, and the row's attribution table and broker cut.
func purchaseFromReplay(tx Transaction, rp walReplay) *Purchase {
	return &Purchase{
		Instance: &ml.Instance{
			Model:     tx.Model,
			W:         append([]float64(nil), rp.W...),
			Mu:        rp.Mu,
			TrainLoss: rp.TrainLoss,
		},
		Model:         tx.Model,
		Delta:         tx.Delta,
		ExpectedError: tx.ExpectedError,
		Price:         tx.Price,
		Seq:           tx.Seq,
		Shares:        tx.Shares,
		BrokerShare:   tx.BrokerShare,
	}
}
