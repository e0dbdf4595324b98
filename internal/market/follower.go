package market

// Replication stances for the Broker, plus the follower-side frame
// applier. A broker is either the leader (sells, journals, ships
// frames) or a follower (read-only warm standby applying the leader's
// frames through the same record applier recovery uses).
// Promotion flips a follower to leader in place — the applied state is
// already the ledger, so there is nothing to rebuild; the new leader
// only journals the numbers the old one allocated but never shipped.
//
// The acknowledgement barrier is how quorum mode attaches to the sale
// path without the broker knowing anything about replication: the
// replica layer installs a wait function, and BuyIdempotent blocks on
// it after the journal accepted the sale. On a barrier timeout the
// sale stands — journaled, shipping, replay-cached — and the buyer
// gets a retryable error whose retry replays the original Seq.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrFollower is returned by the buy path while the broker is a
// follower: writes must go to the leader. httpapi maps it to 503 with
// an X-Leader hint.
var ErrFollower = errors.New("market: broker is a follower; writes go to the leader")

// ErrReplicationLag is returned (wrapped) when a quorum-mode sale was
// journaled locally but the replica quorum did not confirm within the
// acknowledgement timeout. The sale is NOT rolled back — it is durable
// and shipping — and a retry under the same Idempotency-Key replays it
// rather than charging twice.
var ErrReplicationLag = errors.New("market: replica quorum not reached before timeout")

// ackBarrier wraps the replication acknowledgement wait so it can live
// behind an atomic pointer.
type ackBarrier struct {
	wait func(ctx context.Context) error
}

// SetFollower puts the broker in the follower stance: sells are
// refused with ErrFollower and hint (the leader's address, may be
// empty) is surfaced to clients. Quotes, menus, and ledger reads keep
// serving from the replicated state.
func (b *Broker) SetFollower(hint string) {
	b.leaderHint.Store(&hint)
	b.follower.Store(true)
}

// Promote flips a follower to leader in place. The applied state is
// already the ledger, so the broker starts selling immediately where
// the stream left off. The numbering is now this node's: before the
// first sale it journals every number the old leader allocated but
// never shipped (RecoveredState.Lost) as a skip record, ascending, so
// the numbers are never resold and the followers it ships to learn
// them.
func (b *Broker) Promote() {
	if b.journal != nil && b.follower.Load() {
		b.journal.journalLost()
	}
	b.follower.Store(false)
}

// IsFollower reports whether the broker is currently refusing writes.
func (b *Broker) IsFollower() bool { return b.follower.Load() }

// LeaderHint returns the advertised leader address, if any.
func (b *Broker) LeaderHint() string {
	if h := b.leaderHint.Load(); h != nil {
		return *h
	}
	return ""
}

// SetAckBarrier installs (or, with nil, removes) the replication
// acknowledgement barrier the buy path blocks on after journaling a
// sale. The replica layer installs one in quorum mode.
func (b *Broker) SetAckBarrier(wait func(ctx context.Context) error) {
	if wait == nil {
		b.barrier.Store(nil)
		return
	}
	b.barrier.Store(&ackBarrier{wait: wait})
}

// waitAck blocks on the installed acknowledgement barrier, if any.
func (b *Broker) waitAck(ctx context.Context) error {
	bar := b.barrier.Load()
	if bar == nil {
		return nil
	}
	if err := bar.wait(ctx); err != nil {
		return fmt.Errorf("%w: %v", ErrReplicationLag, err)
	}
	return nil
}

// FollowerApplier applies replicated WAL frames to a follower broker:
// each record is journaled to the follower's own store first (so its
// logical frame cursor and stream digest advance in lockstep with the
// leader's) and then applied through the record applier recovery uses
// — ledger rows, skip gaps, replay-cache entries, and repriced curves
// all land warm.
type FollowerApplier struct {
	b *Broker
	d *DurableLedger
}

// NewFollowerApplier wires a follower broker to its durable ledger.
// The broker must already have the ledger attached.
func NewFollowerApplier(b *Broker, d *DurableLedger) *FollowerApplier {
	return &FollowerApplier{b: b, d: d}
}

// Frames reports the follower's logical frame cursor — how much of the
// leader's stream it has durably applied.
func (fa *FollowerApplier) Frames() uint64 { return fa.d.st.Frames() }

// ApplyRecords journals a chunk of replicated records with one store
// Append — one fsync per shipment — and applies them. Records are
// decoded and checked against the v2 epoch fence in stream order — the
// fence as applied so far plus the chunk's own earlier records — before
// anything is journaled, so a malformed record never advances the frame
// cursor: the valid prefix before the first bad record is journaled and
// applied, and then that record's error is returned, exactly as
// applying the records one at a time would. If the append fails nothing
// is applied and the fence is as it was. Callers (the replica layer)
// serialize ApplyRecords calls and deliver chunks in stream order.
func (fa *FollowerApplier) ApplyRecords(recs [][]byte) error {
	fa.d.mu.Lock()
	sawV2 := fa.d.sawV2
	fa.d.mu.Unlock()
	valid := make([]walRecord, 0, len(recs))
	var bad error
	for _, rec := range recs {
		wr, err := decodeAfter(rec, sawV2)
		if err != nil {
			bad = fmt.Errorf("market: replicated record: %w", err)
			break
		}
		sawV2 = sawV2 || wr.Kind == walKindTx && attributed(&wr.Tx.Transaction)
		valid = append(valid, wr)
	}
	// The RAW bytes are what get appended, v2 envelope intact, so the
	// follower's chained stream digest matches the leader's byte for
	// byte.
	if err := fa.d.st.Append(recs[:len(valid)]...); err != nil {
		return err
	}
	for _, wr := range valid {
		fa.d.apply(wr)
	}
	fa.b.serveJournal(fa.d)
	return bad
}

// advanceMax CAS-advances a to at least v.
func advanceMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
