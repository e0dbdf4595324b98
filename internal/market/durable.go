package market

// This file is the broker's write-ahead journal: DurableLedger journals
// every transaction (and every permanently skipped sequence number)
// through a store.Store WAL before the in-memory sharded ledger — and
// therefore the buyer — sees it.
// Recovery replays the WAL and rebuilds the exact pre-crash ledger,
// sequence counter, logical clock and unexpired idempotency entries.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// allocated and never sold — canceled under concurrent traffic and not
// handed back, or lost in flight (see RecoveredState.Lost) — so every
// node can account for the gap; kind "stakes" records a published
// attribution stake table so recovery and replicating followers resume
// splitting revenue over the same sellers.
//
// Record encoding is versioned at the store layer (store.DecodeRecord):
// a tx is written as a v2 envelope — the binary walTx layout (see
// encodeWALTx) as the payload plus the binary share table as the
// attachment, in ONE WAL frame, so the sale and its attribution commit
// atomically. The other kinds are bare (v1) JSON documents of this
// struct, and so are the tx records of journals written before
// attribution; journals written between attribution and the binary
// layout hold this JSON document, Shares/BrokerShare stripped, as the
// v2 payload. Both JSON tx forms are read, never written.
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

// RecoveredState summarizes what OpenDurableLedger rebuilt into the
// DurableLedger, from which Broker.AttachDurableLedger resumes serving.
type RecoveredState struct {
	// Stats are the raw storage-engine recovery stats.
	Stats store.RecoveryStats
	// Transactions and Skips count replayed rows by kind.
	Transactions, Skips int
	// MaxSeq is the highest sequence number seen (sold or skipped);
	// the sequence counter resumes past it.
	MaxSeq uint64
	// Replays counts the keyed rows — sales journaled with an
	// idempotency entry — as the applier files them, before TTL
	// filtering at seed time: a key journaled twice (a retry sold again
	// after its entry was evicted) counts twice.
	Replays int
	// Lost lists, ascending, the sequence numbers up to MaxSeq with
	// neither a transaction nor a skip record: sales in flight at the
	// crash, allocated but never journaled — and therefore never
	// acknowledged to a buyer — so "transactions ∪ skips ∪ lost =
	// 1..MaxSeq". Opening only reports them: a follower's journal may
	// still receive those sales. The node that owns the numbering
	// journals them as skip records, so they are never reused and its
	// followers learn them: AttachDurableLedger on a broker that is not
	// a follower, or Broker.Promote.
	Lost []uint64
	// Duration is how long OpenDurableLedger took to rebuild all of the
	// above; the store.recovery_seconds gauge reports it.
	Duration time.Duration
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

	// mu guards the journal state kept beside the rows: the skips the
	// accounted set needs, the epoch fence, the logical clock, and what
	// the attached broker has yet to serve.
	mu    sync.Mutex
	skips []uint64
	// owed lists numbers whose skip record failed to append on a store
	// that stayed healthy. The next record journaled carries their skip
	// records in front of it, in the same Append call (see journal), and
	// they join skips once that append succeeds.
	owed []uint64
	// sawV2 latches once an attributed transaction has been journaled
	// or applied: the epoch fence (see decodeAfter).
	sawV2 bool
	// logical is the highest logical-clock stamp journaled or applied.
	logical uint64
	// unserved is what the appliers filed that the attached broker
	// does not serve yet; Broker.serveJournal publishes and clears it.
	unserved struct {
		sales  []*walTx                     // keyed sales, in journal order
		curves map[ml.Model][]pricing.Point // newest applied curve per model
		stakes []SellerStake                // newest applied stake table, nil if none
	}
}

// errMixedEpoch reports a v1 (pre-attribution) transaction encountered
// after v2 records: mixed-epoch downgrades are refused.
var errMixedEpoch = fmt.Errorf("market: v1 transaction after v2 attribution records (mixed-epoch downgrade)")

// decodeAfter decodes one journal record that follows content whose
// epoch is sawV2, enforcing the epoch fence: after an attributed (v2)
// sale, a bare v1 sale is a downgrade — some writer running the old
// encoding — refused rather than silently filed as legacy gross, which
// would leak sellers' revenue to the pre-attribution bucket. Only the
// appliers latch the fence.
func decodeAfter(rec []byte, sawV2 bool) (walRecord, error) {
	wr, err := decodeWALRecord(rec)
	if err == nil && sawV2 && wr.Kind == walKindTx && !attributed(&wr.Tx.Transaction) {
		err = errMixedEpoch
	}
	return wr, err
}

// attributed reports whether tx carries an attribution table.
func attributed(tx *Transaction) bool { return tx.Shares != nil || tx.BrokerShare != 0 }

// apply files one decoded journal record into d: the record applier
// recovery and FollowerApplier share. It covers rows, skips, replay
// entries, curves, stakes, the epoch fence, the logical clock and the
// sequence high-water mark, and queues what the attached broker serves.
// The caller has checked the record against the fence (decodeAfter).
func (d *DurableLedger) apply(wr walRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch wr.Kind {
	case walKindTx:
		tx := &wr.Tx.Transaction
		d.mem.file(*tx)
		advanceMax(&d.mem.seq, uint64(tx.Seq))
		d.sawV2 = d.sawV2 || attributed(tx)
		d.logical = max(d.logical, tx.Stamp.Logical)
		if wr.Tx.Replay != nil {
			d.unserved.sales = append(d.unserved.sales, wr.Tx)
		}
	case walKindSkip:
		d.skips = append(d.skips, wr.Seq)
		d.owed = slices.DeleteFunc(d.owed, func(seq uint64) bool { return seq == wr.Seq })
		advanceMax(&d.mem.seq, wr.Seq)
	case walKindCurve:
		if d.unserved.curves == nil {
			d.unserved.curves = make(map[ml.Model][]pricing.Point)
		}
		d.unserved.curves[wr.Curve.Model] = wr.Curve.Points
	case walKindStakes:
		d.unserved.stakes = wr.Stakes
	}
}

// lost lists, ascending, the numbers up to the sequence high-water mark
// with neither a row nor a skip: sales allocated but never journaled.
// The journal is in append order, not sequence order, so a crash can
// cut off a sale whose number is below a journaled one. Rows and skips
// mark a bitset over 0..high-water, each stripe read in place under its
// lock.
func (d *DurableLedger) lost() []uint64 {
	hw := d.mem.seq.Load()
	held := make([]uint64, hw/64+1)
	held[0] = 1 // there is no number 0
	mark := func(seq uint64) {
		if seq <= hw {
			held[seq/64] |= 1 << (seq % 64)
		}
	}
	for i := range d.mem.shards {
		sh := &d.mem.shards[i]
		sh.mu.Lock()
		for j := range sh.txs {
			mark(uint64(sh.txs[j].Seq))
		}
		sh.mu.Unlock()
	}
	d.mu.Lock()
	for _, seq := range d.skips {
		mark(seq)
	}
	d.mu.Unlock()
	var lost []uint64
	for i, w := range held {
		// w |= w+1 sets the lowest clear bit: visit each clear bit once.
		for ; w != ^uint64(0); w |= w + 1 {
			seq := uint64(i)*64 + uint64(bits.TrailingZeros64(^w))
			if seq > hw {
				break
			}
			lost = append(lost, seq)
		}
	}
	return lost
}

// journalLost journals each lost number as a skip record, ascending, so
// it is never reused and the followers this node ships to account for
// it too. Only the node that owns the numbering calls it, so two nodes
// deriving from the same journal append the same frames.
func (d *DurableLedger) journalLost() {
	for _, seq := range d.lost() {
		d.journalSkip(seq)
	}
}

// OpenDurableLedger opens (creating if needed) the journal in dir and
// replays it into a fresh ledger. The returned RecoveredState feeds
// Broker.AttachDurableLedger. Store metrics hooks are installed on top
// of any the caller provided.
func OpenDurableLedger(dir string, o store.Options) (*DurableLedger, *RecoveredState, error) {
	start := time.Now()
	d := &DurableLedger{}

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

	st, stats, err := store.Open(dir, o, func(rec []byte) error {
		wr, err := decodeAfter(rec, d.sawV2)
		if err == nil {
			d.apply(wr)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	d.st = st
	rs := &RecoveredState{
		Stats:        stats,
		Transactions: int(d.mem.recorded.Load()),
		Skips:        len(d.skips),
		MaxSeq:       d.mem.seq.Load(),
		Replays:      len(d.unserved.sales),
		Lost:         d.lost(),
	}
	rs.Duration = time.Since(start)
	metStoreRecoverySeconds.Set(rs.Duration.Seconds())
	metStoreRecoveryRecords.Set(float64(stats.Records))
	metStoreRecoverySegments.Set(float64(stats.Segments))
	metStoreRecoveryTruncated.Set(float64(stats.TruncatedBytes))
	return d, rs, nil
}

// decodeWALRecord decodes one journaled record: the store-level
// envelope first (v1 bare JSON vs v2 payload+attribution table), then
// the body — the binary walTx layout when a v2 payload opens with
// walTxTag, a JSON document otherwise — then, for v2 transactions, the
// binary share table, which is attached back onto the transaction (so
// a v2 sale is always attributed, a bare v1 sale never).
// Both recovery and the follower applier read records through this
// single path, so the two can never disagree about what a record
// means.
func decodeWALRecord(rec []byte) (wr walRecord, err error) {
	ver, payload, table, err := store.DecodeRecord(rec)
	if err != nil {
		return walRecord{}, fmt.Errorf("market: decoding wal record envelope: %w", err)
	}
	if ver == 2 && len(payload) > 0 && payload[0] == walTxTag {
		wtx, err := decodeWALTx(payload)
		if err != nil {
			return walRecord{}, err
		}
		wr = walRecord{Kind: walKindTx, Tx: wtx}
	} else if err := json.Unmarshal(payload, &wr); err != nil {
		return walRecord{}, fmt.Errorf("market: decoding wal record: %w", err)
	}
	switch wr.Kind {
	case walKindTx:
		if wr.Tx == nil {
			return walRecord{}, fmt.Errorf("market: wal tx record without body")
		}
		if ver == 2 {
			brokerShare, shares, err := decodeShareTable(table)
			if err != nil {
				return walRecord{}, err
			}
			wr.Tx.Transaction.Shares = shares
			wr.Tx.Transaction.BrokerShare = brokerShare
		}
	case walKindSkip:
	case walKindCurve:
		if wr.Curve == nil {
			return walRecord{}, fmt.Errorf("market: wal curve record without body")
		}
	case walKindStakes:
		if wr.Stakes == nil {
			return walRecord{}, fmt.Errorf("market: wal stakes record without body")
		}
	default:
		return walRecord{}, fmt.Errorf("market: unknown wal record kind %q", wr.Kind)
	}
	return wr, nil
}

// releaseSeq hands the number back when possible; when concurrent
// traffic already built on top of it, the permanent gap is journaled so
// recovery can tell a canceled sale from a lost row and prove the
// ledger prefix is still complete.
func (d *DurableLedger) releaseSeq(seq uint64) {
	if !d.mem.releaseSeq(seq) {
		d.journalSkip(seq)
	}
}

// journalSkip journals seq as a skip record and applies it. A failed
// append leaves it owed (see DurableLedger.owed): a failed fsync or a
// clean write failure leaves the store healthy, and the next record
// journaled carries the skip in front of it. On a store that latched
// failed nothing is journaled again, and the next open derives the
// number as lost.
func (d *DurableLedger) journalSkip(seq uint64) {
	d.mu.Lock()
	if !slices.Contains(d.owed, seq) {
		d.owed = append(d.owed, seq)
	}
	d.mu.Unlock()
	_ = d.journal(nil) // on failure seq stays owed: nothing more to do here
}

// journal appends rec (none when nil) behind the skip records of the
// numbers owed, in one Append call, and files the skips once it
// succeeds. On failure they stay owed.
func (d *DurableLedger) journal(rec []byte) error {
	d.mu.Lock()
	owed := d.owed
	d.owed = nil
	d.mu.Unlock()
	if len(owed) == 0 {
		if rec == nil {
			return nil
		}
		return d.st.Append(rec)
	}
	recs := make([][]byte, 0, len(owed)+1)
	for _, seq := range owed {
		skip, _ := json.Marshal(walRecord{Kind: walKindSkip, Seq: seq}) // a kind and a number: cannot fail
		recs = append(recs, skip)
	}
	if rec != nil {
		recs = append(recs, rec)
	}
	err := d.st.Append(recs...)
	if err != nil {
		d.mu.Lock()
		d.owed = append(owed, d.owed...)
		d.mu.Unlock()
		return err
	}
	for _, seq := range owed {
		d.apply(walRecord{Kind: walKindSkip, Seq: seq})
	}
	return nil
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
	_, span := trace.Start(ctx, "store.append", "seq", strconv.Itoa(tx.Seq))
	err = d.journal(rec)
	span.End()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrSaleNotRecorded, err)
	}
	// Every sale is written as v2 (encodeWALTx refuses one without a
	// table), so journaling one latches the epoch fence: a bare v1 sale
	// replicated to this ledger later is refused.
	d.mu.Lock()
	d.sawV2 = true
	d.logical = max(d.logical, tx.Stamp.Logical)
	d.mu.Unlock()
	d.mem.file(tx)
	return nil
}

// walTxTag opens the binary walTx payload and names its layout. It is
// a control byte, so no JSON document — the v2 tx payload of older
// journals — can begin with it.
const walTxTag = 0x01

// Sizes of the binary walTx payload: the fixed part (through the
// replay flag), and a replay entry's fixed part before its key and
// weights.
const (
	walTxFixedBytes     = 1 + 6*8 + 16 + 1
	walReplayFixedBytes = 4 + 8 + 4 + 2*8 + 16
)

// encodeWALTx encodes a tx record for the journal: a v2 envelope whose
// payload is the binary layout below and whose attachment is the
// binary share table, one WAL frame, so the sale and its attribution
// commit (and replicate) atomically. It is the only tx encoding
// written. Every sale carries a table (splitPrice always returns one),
// and a transaction without one is refused: recovery would read its
// empty table back as an attributed sale that conserves nothing.
//
// The payload is little-endian with floats as raw IEEE-754 bits, so
// every field comes back bit for bit:
//
//	[1B walTxTag][8B Seq][8B Model][8B Delta][8B Price][8B ExpectedError]
//	[8B Stamp.Logical][16B Stamp.Wall][1B replay present: 0 or 1]
//	replay: [4B key length][key][8B Seq][4B W count][count × 8B W]
//	        [8B Mu][8B TrainLoss][16B At]
//
// A wall time is [8B Unix seconds][4B nanoseconds][4B UTC offset in
// seconds]. Values JSON cannot carry — non-finite floats, walls outside
// RFC 3339 — are refused: /ledger is JSON, so every journaled row must
// be one it can render.
func encodeWALTx(wtx *walTx) ([]byte, error) {
	if wtx.Shares == nil {
		return nil, fmt.Errorf("%w: sale %d has no attribution table", errWALTx, wtx.Seq)
	}
	payload, err := appendWALTx(make([]byte, 0, walTxSize(wtx)), wtx)
	if err != nil {
		return nil, err
	}
	return store.EncodeRecordV2(payload, encodeShareTable(wtx.BrokerShare, wtx.Shares)), nil
}

// errWALTx reports a walTx the binary layout refuses to carry.
var errWALTx = errors.New("market: invalid wal tx")

// walTxSize is the length of wtx's binary payload.
func walTxSize(wtx *walTx) int {
	n := walTxFixedBytes
	if rp := wtx.Replay; rp != nil {
		n += walReplayFixedBytes + len(rp.Key) + 8*len(rp.W)
	}
	return n
}

// appendWALTx appends wtx's binary payload to b.
func appendWALTx(b []byte, wtx *walTx) ([]byte, error) {
	tx, rp := &wtx.Transaction, wtx.Replay
	if !finite(tx.Delta, tx.Price, tx.ExpectedError) {
		return nil, fmt.Errorf("%w: non-finite delta, price or expected error", errWALTx)
	}
	if !wallOK(tx.Stamp.Wall) {
		return nil, fmt.Errorf("%w: wall %v outside RFC 3339", errWALTx, tx.Stamp.Wall)
	}
	le := binary.LittleEndian
	b = append(b, walTxTag)
	b = le.AppendUint64(b, uint64(tx.Seq))
	b = le.AppendUint64(b, uint64(tx.Model))
	b = appendFloat64(b, tx.Delta)
	b = appendFloat64(b, tx.Price)
	b = appendFloat64(b, tx.ExpectedError)
	b = le.AppendUint64(b, tx.Stamp.Logical)
	b = appendWall(b, tx.Stamp.Wall)
	if rp == nil {
		return append(b, 0), nil
	}
	if !finite(rp.Mu, rp.TrainLoss) || !finite(rp.W...) {
		return nil, fmt.Errorf("%w: non-finite replay weights", errWALTx)
	}
	if !wallOK(rp.At) {
		return nil, fmt.Errorf("%w: replay time %v outside RFC 3339", errWALTx, rp.At)
	}
	if len(rp.Key) > math.MaxUint32 || len(rp.W) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: replay entry too long", errWALTx)
	}
	b = append(b, 1)
	b = le.AppendUint32(b, uint32(len(rp.Key)))
	b = append(b, rp.Key...)
	b = le.AppendUint64(b, uint64(rp.Seq))
	b = le.AppendUint32(b, uint32(len(rp.W)))
	for _, w := range rp.W {
		b = appendFloat64(b, w)
	}
	b = appendFloat64(b, rp.Mu)
	b = appendFloat64(b, rp.TrainLoss)
	return appendWall(b, rp.At), nil
}

// decodeWALTx parses an appendWALTx payload. Every length is checked
// against the bytes left before anything is sliced or allocated,
// trailing bytes are refused, and so is every value the encoder
// refuses, so a payload decodes only if it re-encodes to itself.
func decodeWALTx(b []byte) (*walTx, error) {
	r := walReader{b: b}
	if tag := r.u8(); tag != walTxTag {
		r.fail("tag %#x", tag)
	}
	wtx := &walTx{}
	tx := &wtx.Transaction
	tx.Seq = int(r.u64())
	tx.Model = ml.Model(r.u64())
	tx.Delta = r.f64()
	tx.Price = r.f64()
	tx.ExpectedError = r.f64()
	tx.Stamp.Logical = r.u64()
	tx.Stamp.Wall = r.wall()
	switch present := r.u8(); present {
	case 0:
	case 1:
		rp := &walReplay{}
		rp.Key = string(r.take(int(r.u32())))
		rp.Seq = int(r.u64())
		if n := int(r.u32()); n > len(r.b)/8 {
			r.fail("replay weight count %d exceeds the record", n)
		} else if n > 0 {
			rp.W = make([]float64, n)
			for i := range rp.W {
				rp.W[i] = r.f64()
			}
		}
		rp.Mu = r.f64()
		rp.TrainLoss = r.f64()
		rp.At = r.wall()
		wtx.Replay = rp
	default:
		r.fail("replay flag %d", present)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return wtx, nil
}

// walReader consumes a binary walTx payload. The first failure sticks:
// later reads return zero values and leave it in place.
type walReader struct {
	b   []byte
	err error
}

func (r *walReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errWALTx}, args...)...)
		r.b = nil
	}
}

// take returns the next n bytes, or nil (failing) when fewer are left.
func (r *walReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail("truncated: %d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *walReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *walReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *walReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// f64 reads a float, failing on NaN and ±Inf.
func (r *walReader) f64() float64 {
	f := math.Float64frombits(r.u64())
	if !finite(f) {
		r.fail("non-finite float")
	}
	return f
}

// wall reads an appendWall time into the location JSON decoding of its
// RFC 3339 form yields: UTC at offset zero, Local where Local has the
// offset at that instant, a fixed zone otherwise.
func (r *walReader) wall() time.Time {
	sec := int64(r.u64())
	nsec := r.u32()
	off := int(int32(r.u32()))
	if r.err != nil {
		return time.Time{}
	}
	if nsec >= 1e9 {
		r.fail("wall nanoseconds %d", nsec)
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if off == 0 {
		t = t.UTC()
	} else if _, local := t.Zone(); local != off {
		t = t.In(time.FixedZone("", off))
	}
	if !wallOK(t) {
		r.fail("wall %d.%09d%+d outside RFC 3339", sec, nsec, off)
		return time.Time{}
	}
	return t
}

// appendWall appends t as Unix seconds, nanoseconds and UTC offset.
func appendWall(b []byte, t time.Time) []byte {
	_, off := t.Zone()
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Unix()))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Nanosecond()))
	return binary.LittleEndian.AppendUint32(b, uint32(int32(off)))
}

// wallOK reports whether t has an RFC 3339 form — a four-digit year
// and a zone offset under a day — which JSON needs to carry it.
func wallOK(t time.Time) bool {
	_, off := t.Zone()
	y := t.Year()
	return 0 <= y && y <= 9999 && -86400 < off && off < 86400
}

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// finite reports whether every f is neither NaN nor ±Inf.
func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// journalStakes appends a stakes record so recovery and replicating
// followers resume splitting revenue over the same sellers.
func (d *DurableLedger) journalStakes(stakes []SellerStake) error {
	rec, err := json.Marshal(walRecord{Kind: walKindStakes, Stakes: stakes})
	if err != nil {
		return fmt.Errorf("market: encoding stakes record: %w", err)
	}
	return d.journal(rec)
}

// journalCurve appends a repriced-curve record so recovery and
// replicating followers republish the same certified menu.
func (d *DurableLedger) journalCurve(m ml.Model, pts []pricing.Point) error {
	rec, err := json.Marshal(walRecord{Kind: walKindCurve, Curve: &walCurve{Model: m, Points: pts}})
	if err != nil {
		return fmt.Errorf("market: encoding curve record: %w", err)
	}
	return d.journal(rec)
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
// frames from it.
func (d *DurableLedger) Store() *store.Store { return d.st }

// AttachDurableLedger swaps the broker's in-memory ledger for d's,
// journals every later sale through d, and resumes serving what
// recovery filed into d (see serveJournal): the sequence counter and
// logical clock continue past their pre-crash maxima, and journaled
// idempotency entries still inside ReplayTTL are re-seeded into the
// replay cache, so a client retry that straddles the restart replays
// the original sale — same Seq, same weights, same attribution —
// instead of being charged twice. rs, the report on d, adds nothing.
//
// A broker that is not a follower owns the numbering, so it journals
// the numbers recovery found lost (RecoveredState.Lost) as skip
// records; a follower leaves them to its leader, or to Promote. Set
// the follower stance before attaching a follower's journal.
//
// Call it during startup, after offers are restored and before the
// broker serves traffic; it is not safe to use concurrently with buys.
func (b *Broker) AttachDurableLedger(d *DurableLedger, rs *RecoveredState) {
	b.ledger, b.journal = &d.mem, d
	b.serveJournal(d)
	if !b.follower.Load() {
		d.journalLost()
	}
}

// serveJournal publishes what d's appliers filed since the last call,
// without journaling it again: the logical clock resumes past the
// newest applied stamp, keyed sales are seeded into the replay cache,
// and the newest applied curve per model and stake table are
// republished. Attach calls it once for everything recovery filed, and
// a follower after each shipment it applies.
func (b *Broker) serveJournal(d *DurableLedger) {
	d.mu.Lock()
	u, logical := d.unserved, d.logical
	d.unserved.sales, d.unserved.curves, d.unserved.stakes = nil, nil, nil
	d.mu.Unlock()
	advanceMax(&b.logical, logical)
	// Newest first: a key the journal holds twice (a retry sold again
	// after its entry was evicted) replays its newest sale, as the live
	// cache would.
	for i := len(u.sales) - 1; i >= 0; i-- {
		s := u.sales[i]
		b.replay.Seed(s.Replay.Key, purchaseFromReplay(s.Transaction, *s.Replay), s.Replay.At)
	}
	// Best effort: a curve for a model not on this broker's menu (or
	// whose grid no longer matches) is skipped — the certified menu
	// keeps serving.
	for m, pts := range u.curves {
		if c, err := pricing.NewCurve(pts); err == nil {
			b.republishCurve(m, c, false)
		}
	}
	// A journal that predates multi-seller attribution has no stakes
	// record; the founder-only table NewBroker seeded keeps serving.
	if len(u.stakes) > 0 {
		_ = b.applyStakes(u.stakes, false)
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
