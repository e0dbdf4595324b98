package market_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/market"
	"github.com/datamarket/mbp/internal/market/markettest"
	"github.com/datamarket/mbp/internal/ml"
	"github.com/datamarket/mbp/internal/noise"
	"github.com/datamarket/mbp/internal/obs/trace"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/store"
)

// durableBroker builds a fixture broker journaling to dir.
func durableBroker(t *testing.T, dir string, o store.Options) (*market.Broker, *market.DurableLedger, *market.RecoveredState) {
	t.Helper()
	b := markettest.Broker(t, 1)
	d, rs, err := market.OpenDurableLedger(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	b.AttachDurableLedger(d, rs)
	return b, d, rs
}

// copyDir snapshots the store directory as a crash would leave it: a
// point-in-time byte copy, possibly mid-append (torn tail included).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// requireJournalAccounted reopens a byte copy of the journal in dir and
// requires its accounted set to be whole: rows rows, and together with
// the skip records every number up to MaxSeq exactly once. Opening
// derives Lost as the numbers with neither, so Transactions + Skips ==
// MaxSeq with nothing lost rules out both a gap and a number counted
// twice. (The live skip list is unexported; the journal is what a
// restart rebuilds it from.)
func requireJournalAccounted(t *testing.T, what, dir string, rows int) {
	t.Helper()
	d, rs, err := market.OpenDurableLedger(copyDir(t, dir), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if rs.Transactions != rows || uint64(rs.Transactions+rs.Skips) != rs.MaxSeq || len(rs.Lost) != 0 {
		t.Fatalf("%s: journal holds %d rows and %d skips for max seq %d (lost %v), want %d rows accounting for every number once",
			what, rs.Transactions, rs.Skips, rs.MaxSeq, rs.Lost, rows)
	}
}

func sameTx(a, b market.Transaction) bool {
	return a.Seq == b.Seq && a.Model == b.Model && a.Delta == b.Delta &&
		a.Price == b.Price && a.ExpectedError == b.ExpectedError &&
		a.Stamp.Logical == b.Stamp.Logical && a.Stamp.Wall.Equal(b.Stamp.Wall)
}

func TestDurableLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, d, rs := durableBroker(t, dir, store.Options{})
	if rs.MaxSeq != 0 || rs.Transactions != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rs)
	}
	menu := markettest.Menu(t, b)
	for i := 0; i < 5; i++ {
		if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[i%len(menu)].Delta); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Ledger()
	wantSeller, wantBroker := b.RevenueSplit()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	b2, _, rs2 := durableBroker(t, dir, store.Options{})
	if rs2.Transactions != 5 || rs2.MaxSeq != 5 || len(rs2.Lost) != 0 {
		t.Fatalf("recovered state %+v, want 5 transactions", rs2)
	}
	got := b2.Ledger()
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameTx(got[i], want[i]) {
			t.Fatalf("row %d: recovered %+v, want %+v", i, got[i], want[i])
		}
	}
	gotSeller, gotBroker := b2.RevenueSplit()
	if math.Abs(gotSeller-wantSeller) > 1e-9 || math.Abs(gotBroker-wantBroker) > 1e-9 {
		t.Fatalf("revenue split (%v, %v), want (%v, %v)", gotSeller, gotBroker, wantSeller, wantBroker)
	}
	// The sequence counter resumed: the next sale extends the ledger,
	// it does not overwrite a recovered row.
	p, err := b2.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 6 {
		t.Fatalf("post-recovery sale got seq %d, want 6", p.Seq)
	}
}

// TestDurableSpanTree checks a durable sale's spans nest as the calls
// do: store.append under market.ledger_append under market.buy.
func TestDurableSpanTree(t *testing.T) {
	b, _, _ := durableBroker(t, t.TempDir(), store.Options{Policy: store.FsyncNever})
	menu := markettest.Menu(t, b)
	tr := trace.NewTracer(4)
	ctx, root := tr.Start(context.Background(), "test.sale")
	if _, err := b.BuyAtPointContext(ctx, markettest.Model, menu[0].Delta); err != nil {
		t.Fatal(err)
	}
	root.End()
	traces := tr.Traces(1)
	if len(traces) != 1 {
		t.Fatalf("tracer holds %d traces, want 1", len(traces))
	}
	parent := map[string]string{} // span name -> parent span name
	names := map[string]string{}  // span ID -> span name
	for _, s := range traces[0].Spans {
		names[s.SpanID] = s.Name
	}
	for _, s := range traces[0].Spans {
		parent[s.Name] = names[s.ParentID]
	}
	for child, want := range map[string]string{
		"market.buy":           "test.sale",
		"market.ledger_append": "market.buy",
		"store.append":         "market.ledger_append",
	} {
		if got, ok := parent[child]; !ok || got != want {
			t.Errorf("span %q has parent %q (recorded: %v), want %q", child, got, ok, want)
		}
	}
}

// TestDurableCrashRecoveryProperty is the acceptance property test:
// concurrent buyers (some idempotent, some with expiring deadlines)
// hammer a durable broker while a crash copy of the store directory is
// taken mid-traffic. State rebuilt from that copy must be a
// duplicate-free prefix of the pre-crash ledger with complete sequence
// accounting, an equal revenue split, and working idempotent replay.
func TestDurableCrashRecoveryProperty(t *testing.T) {
	dir := t.TempDir()
	b, _, _ := durableBroker(t, dir, store.Options{Policy: store.FsyncNever})
	menu := markettest.Menu(t, b)

	const buyers = 16
	const buysPerBuyer = 30
	type keyed struct {
		key string
		p   *market.Purchase
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		keptAll []keyed
	)
	crashed := make(chan string, 1)
	for g := 0; g < buyers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + g))
			for i := 0; i < buysPerBuyer; i++ {
				delta := menu[r.Intn(len(menu))].Delta
				ctx := context.Background()
				if r.Float64() < 0.15 {
					// An aggressive deadline: some of these expire inside
					// the purchase path and exercise seq giveback/skips.
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+r.Intn(40))*time.Microsecond)
					b.BuyAtPointContext(ctx, markettest.Model, delta)
					cancel()
					continue
				}
				if r.Float64() < 0.3 {
					key := fmt.Sprintf("key-%d-%d", g, i)
					p, _, err := b.BuyIdempotent(ctx, key, func(ctx context.Context) (*market.Purchase, error) {
						return b.BuyAtPointContext(ctx, markettest.Model, delta)
					})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					keptAll = append(keptAll, keyed{key, p})
					mu.Unlock()
					continue
				}
				if _, err := b.BuyAtPointContext(ctx, markettest.Model, delta); err != nil {
					t.Error(err)
					return
				}
			}
			if g == buyers/2 {
				// Mid-traffic crash: snapshot the disk while the other
				// buyers are still appending.
				crashed <- copyDir(t, dir)
			}
		}(g)
	}
	wg.Wait()
	crashDir := <-crashed
	preCrash := b.Ledger() // superset of anything the crash copy holds
	byPreSeq := make(map[int]market.Transaction, len(preCrash))
	for _, tx := range preCrash {
		byPreSeq[tx.Seq] = tx
	}

	b2, _, rs := durableBroker(t, crashDir, store.Options{})
	got := b2.Ledger()
	// Attaching a broker that is not a follower journaled the lost
	// numbers as skips.
	requireJournalAccounted(t, "after attach", crashDir, len(got))

	// Duplicate-free, and every recovered row is byte-identical to the
	// pre-crash row with the same seq (prefix-of-content property).
	seen := make(map[int]bool, len(got))
	for _, tx := range got {
		if seen[tx.Seq] {
			t.Fatalf("duplicate seq %d in recovered ledger", tx.Seq)
		}
		seen[tx.Seq] = true
		pre, ok := byPreSeq[tx.Seq]
		if !ok {
			t.Fatalf("recovered seq %d never existed pre-crash", tx.Seq)
		}
		if !sameTx(tx, pre) {
			t.Fatalf("seq %d diverged: recovered %+v, pre-crash %+v", tx.Seq, tx, pre)
		}
	}
	// Complete sequence accounting: every number up to MaxSeq is a
	// transaction, a journaled skip, or a lost in-flight sale.
	if total := len(got) + rs.Skips + len(rs.Lost); uint64(total) != rs.MaxSeq {
		t.Fatalf("accounting gap: %d txs + %d skips + %d lost != max seq %d",
			len(got), rs.Skips, len(rs.Lost), rs.MaxSeq)
	}
	// The revenue split equals the replayed sum.
	var gross float64
	for _, tx := range got {
		gross += tx.Price
	}
	seller, broker := b2.RevenueSplit()
	if math.Abs((seller+broker)-gross) > 1e-9*(1+gross) {
		t.Fatalf("revenue split %v+%v != replayed sum %v", seller, broker, gross)
	}
	if math.Abs(broker-gross*markettest.Commission) > 1e-9*(1+gross) {
		t.Fatalf("broker share %v, want commission %v of %v", broker, markettest.Commission, gross)
	}

	// A client retry that straddles the crash replays the original
	// sale — same Seq, same weights — rather than double-charging.
	replays := 0
	before := len(b2.Ledger())
	for _, k := range keptAll {
		if !seen[k.p.Seq] {
			continue // that sale didn't reach the disk before the crash
		}
		p, replayed, err := b2.BuyIdempotent(context.Background(), k.key, func(ctx context.Context) (*market.Purchase, error) {
			return b2.BuyAtPointContext(ctx, markettest.Model, k.p.Delta)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !replayed {
			t.Fatalf("key %s executed a fresh sale after recovery", k.key)
		}
		if p.Seq != k.p.Seq || p.Price != k.p.Price {
			t.Fatalf("replayed purchase diverged: got seq %d price %v, want seq %d price %v",
				p.Seq, p.Price, k.p.Seq, k.p.Price)
		}
		for i := range p.Instance.W {
			if p.Instance.W[i] != k.p.Instance.W[i] {
				t.Fatalf("replayed weights diverged at %d", i)
			}
		}
		replays++
	}
	if replays == 0 {
		t.Fatal("crash copy contained no idempotent sale to replay — test lost its teeth")
	}
	if after := len(b2.Ledger()); after != before {
		t.Fatalf("replays appended %d new ledger rows", after-before)
	}
}

// gatedMech blocks the first Perturb call until the gate closes,
// letting the test park one sale mid-noise-draw while another sale
// claims a later sequence number.
type gatedMech struct {
	noise.Mechanism
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
	first   sync.Once
}

func (g *gatedMech) Perturb(optimal *ml.Instance, delta float64, r *rng.RNG) *ml.Instance {
	blocked := false
	g.first.Do(func() { blocked = true })
	if blocked {
		g.once.Do(func() { close(g.entered) })
		<-g.gate
	}
	return g.Mechanism.Perturb(optimal, delta, r)
}

// TestDurableSkipJournaled forces the deterministic skip path: sale 1
// is canceled mid-draw after sale 2 already claimed the newer number,
// so the CAS giveback fails and the durable ledger journals seq 1 as a
// permanent skip. Recovery accounts for it.
func TestDurableSkipJournaled(t *testing.T) {
	dir := t.TempDir()
	mech := &gatedMech{Mechanism: noise.Gaussian{}, entered: make(chan struct{}), gate: make(chan struct{})}
	b := markettest.BrokerWith(t, 1, mech)
	d, rs, err := market.OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.AttachDurableLedger(d, rs)
	menu := markettest.Menu(t, b)

	ctxA, cancelA := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.BuyAtPointContext(ctxA, markettest.Model, menu[0].Delta)
		errc <- err
	}()
	<-mech.entered // sale 1 parked inside the noise draw
	if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[1].Delta); err != nil {
		t.Fatal(err) // sale 2 completes, claiming seq 2
	}
	cancelA()
	close(mech.gate)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked sale returned %v, want context.Canceled", err)
	}
	txs := b.Ledger()
	if len(txs) != 1 || txs[0].Seq != 2 {
		t.Fatalf("ledger %+v, want only seq 2", txs)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	_, rs2, err := market.OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Transactions != 1 || rs2.Skips != 1 || rs2.MaxSeq != 2 || len(rs2.Lost) != 0 {
		t.Fatalf("recovered accounting %+v, want 1 tx + 1 journaled skip", rs2)
	}
}

func TestDurableIdempotentReplayExpiresWithTTL(t *testing.T) {
	dir := t.TempDir()
	b, d, _ := durableBroker(t, dir, store.Options{})
	menu := markettest.Menu(t, b)
	// Stamp the sale's wall clock beyond the replay TTL: the journal
	// entry is intact but too old to honor after restart.
	b.SetClock(func() time.Time { return time.Now().Add(-2 * market.ReplayTTL) })
	p1, _, err := b.BuyIdempotent(context.Background(), "stale-key", func(ctx context.Context) (*market.Purchase, error) {
		return b.BuyAtPointContext(ctx, markettest.Model, menu[0].Delta)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	b2, _, rs := durableBroker(t, dir, store.Options{})
	if rs.Replays != 1 {
		t.Fatalf("journal kept %d replay entries, want 1", rs.Replays)
	}
	p2, replayed, err := b2.BuyIdempotent(context.Background(), "stale-key", func(ctx context.Context) (*market.Purchase, error) {
		return b2.BuyAtPointContext(ctx, markettest.Model, menu[0].Delta)
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("expired idempotency entry was replayed after recovery")
	}
	if p2.Seq == p1.Seq {
		t.Fatal("fresh sale reused the original sequence number")
	}
}

// TestDurableReplayKeepsAttribution: a keyed retry that a restarted
// broker answers from the journal returns the sale's attribution table
// and broker cut, exactly as a live replay does.
func TestDurableReplayKeepsAttribution(t *testing.T) {
	dir := t.TempDir()
	open := func() (*market.Broker, *market.DurableLedger) {
		b := markettest.MultiSellerBroker(t, 1, 3)
		d, rs, err := market.OpenDurableLedger(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b.AttachDurableLedger(d, rs)
		return b, d
	}
	b, d := open()
	menu := markettest.Menu(t, b)
	ctx := context.Background()
	orig, _, err := b.BuyIdempotent(ctx, "attr-key", func(ctx context.Context) (*market.Purchase, error) {
		return b.BuyAtPointContext(ctx, markettest.Model, menu[0].Delta)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Shares) != 3 || orig.BrokerShare == 0 {
		t.Fatalf("sale attributed %v / %v, want 3 seller shares and a broker cut", orig.Shares, orig.BrokerShare)
	}
	// The retry closure fails, so only a replay can answer the key.
	errFresh := errors.New("executed fresh")
	retry := func(context.Context) (*market.Purchase, error) { return nil, errFresh }
	check := func(what string, b *market.Broker) {
		t.Helper()
		p, replayed, err := b.BuyIdempotent(ctx, "attr-key", retry)
		if err != nil || !replayed {
			t.Fatalf("%s retry: replayed=%v err=%v, want a replay", what, replayed, err)
		}
		if p.Seq != orig.Seq || p.BrokerShare != orig.BrokerShare || !reflect.DeepEqual(p.Shares, orig.Shares) {
			t.Fatalf("%s replay: seq %d shares %v / %v, want seq %d shares %v / %v",
				what, p.Seq, p.Shares, p.BrokerShare, orig.Seq, orig.Shares, orig.BrokerShare)
		}
	}
	check("live", b)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	b2, _ := open()
	check("recovered", b2)
}

// TestDurableRecoveryKeepsNewestReplays journals more keyed sales than
// the replay cache holds and restarts: recovery must keep the newest
// ReplayCapacity keys, whatever order the journal hands them back in,
// so a retry of any of them replays instead of charging again.
func TestDurableRecoveryKeepsNewestReplays(t *testing.T) {
	const extra = 200
	dir := t.TempDir()
	opts := store.Options{Policy: store.FsyncNever}
	b, d, _ := durableBroker(t, dir, opts)
	menu := markettest.Menu(t, b)
	start := time.Now().Add(-market.ReplayTTL / 2)
	var stamp time.Time
	b.SetClock(func() time.Time { return stamp })
	ctx := context.Background()
	seqs := make([]int, market.ReplayCapacity+extra)
	for i := range seqs {
		stamp = start.Add(time.Duration(i) * time.Millisecond)
		p, _, err := b.BuyIdempotent(ctx, fmt.Sprintf("key-%d", i), func(ctx context.Context) (*market.Purchase, error) {
			return b.BuyAtPointContext(ctx, markettest.Model, menu[0].Delta)
		})
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = p.Seq
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	b2, _, rs := durableBroker(t, dir, opts)
	if rs.Replays != len(seqs) {
		t.Fatalf("journal kept %d replay entries, want %d", rs.Replays, len(seqs))
	}
	// The retry closure fails, so a key that executes fresh leaves
	// nothing behind and cannot evict the keys still to be checked.
	errFresh := errors.New("executed fresh")
	retry := func(ctx context.Context) (*market.Purchase, error) { return nil, errFresh }
	var charged []int
	for i := extra; i < len(seqs); i++ {
		p, replayed, err := b2.BuyIdempotent(ctx, fmt.Sprintf("key-%d", i), retry)
		switch {
		case errors.Is(err, errFresh):
			charged = append(charged, i)
		case err != nil || !replayed || p.Seq != seqs[i]:
			t.Fatalf("key-%d = (%+v, %v, %v), want a replay of seq %d", i, p, replayed, err, seqs[i])
		}
	}
	if len(charged) > 0 {
		t.Fatalf("%d of the newest %d keys executed again after restart (first: key-%d)",
			len(charged), market.ReplayCapacity, charged[0])
	}
	for i := 0; i < extra; i++ {
		if _, replayed, err := b2.BuyIdempotent(ctx, fmt.Sprintf("key-%d", i), retry); replayed || !errors.Is(err, errFresh) {
			t.Fatalf("key-%d: replayed=%v err=%v, want a fresh execution of an evicted key", i, replayed, err)
		}
	}
}

func TestDurableTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	b, d, _ := durableBroker(t, dir, store.Options{})
	menu := markettest.Menu(t, b)
	for i := 0; i < 3; i++ {
		if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Ledger()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	b2, _, rs := durableBroker(t, dir, store.Options{})
	if rs.Stats.TruncatedBytes == 0 {
		t.Fatalf("torn tail not truncated: %+v", rs.Stats)
	}
	got := b2.Ledger()
	if len(got) != 2 || !sameTx(got[0], want[0]) || !sameTx(got[1], want[1]) {
		t.Fatalf("recovered %+v, want the first two pre-crash rows", got)
	}
	// Under FsyncAlways a torn final frame was never acknowledged (the
	// crash landed mid-append, before the ack), so its number is
	// legitimately free again: the counter resumes at the highest
	// surviving number and the next sale takes 3.
	if rs.MaxSeq != 2 || len(rs.Lost) != 0 {
		t.Fatalf("recovered accounting %+v, want max seq 2 with nothing lost", rs)
	}
	p, err := b2.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 3 {
		t.Fatalf("post-recovery sale got seq %d, want 3", p.Seq)
	}
}

func TestDurableMidLogCorruptionRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	b, d, _ := durableBroker(t, dir, store.Options{})
	menu := markettest.Menu(t, b)
	for i := 0; i < 3; i++ {
		if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000001.log")
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[9] ^= 0xFF // first frame's payload: valid frames follow it
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := market.OpenDurableLedger(dir, store.Options{}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("mid-log corruption opened with err=%v, want store.ErrCorrupt", err)
	}
}

// TestDurableChaosTornWriteRecovery drives the durable broker through
// the chaos harness's torn-write injection: the torn sale is refused
// (buyer not charged), the store latches failed like a crash, and
// recovery on the same directory truncates the tear and resumes with
// the pre-tear ledger intact.
func TestDurableChaosTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	chaos := resilience.NewChaos(7, resilience.ChaosConfig{})
	b, _, _ := durableBroker(t, dir, store.Options{Faults: chaos.StoreFaults()})
	menu := markettest.Menu(t, b)
	for i := 0; i < 3; i++ {
		if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); err != nil {
			t.Fatal(err)
		}
	}
	chaos.Update(resilience.ChaosConfig{TornProb: 1})
	if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); !errors.Is(err, market.ErrSaleNotRecorded) {
		t.Fatalf("torn sale returned %v, want ErrSaleNotRecorded", err)
	}
	// The simulated crash took the journal down: further sales refuse.
	if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); !errors.Is(err, market.ErrSaleNotRecorded) {
		t.Fatalf("post-crash sale returned %v, want ErrSaleNotRecorded", err)
	}
	want := b.Ledger()
	if len(want) != 3 {
		t.Fatalf("torn sale reached the ledger: %d rows", len(want))
	}

	// "Restart": recovery truncates the tear and serves the full
	// pre-tear ledger.
	b2, _, rs := durableBroker(t, dir, store.Options{})
	if rs.Stats.TruncatedBytes == 0 {
		t.Fatalf("recovery found no tear: %+v", rs.Stats)
	}
	got := b2.Ledger()
	if len(got) != 3 {
		t.Fatalf("recovered %d rows, want 3", len(got))
	}
	for i := range want {
		if !sameTx(got[i], want[i]) {
			t.Fatalf("row %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
	if p, err := b2.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); err != nil || p.Seq != 4 {
		t.Fatalf("post-recovery sale (%v, %v), want seq 4", p, err)
	}
}

func TestDurablePersistFailureAbortsSale(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("disk says no")
	var failing bool
	faults := &store.Faults{Write: func(frame []byte) (int, error) {
		if failing {
			return 0, injected
		}
		return len(frame), nil
	}}
	b, d, _ := durableBroker(t, dir, store.Options{Faults: faults})
	menu := markettest.Menu(t, b)
	if _, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta); err != nil {
		t.Fatal(err)
	}
	failing = true
	_, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta)
	if !errors.Is(err, market.ErrSaleNotRecorded) {
		t.Fatalf("unjournaled sale returned %v, want ErrSaleNotRecorded", err)
	}
	if txs := b.Ledger(); len(txs) != 1 {
		t.Fatalf("aborted sale left %d ledger rows, want 1", len(txs))
	}
	if s, br := b.RevenueSplit(); math.Abs(s+br-menu[0].Price) > 1e-9 {
		t.Fatalf("aborted sale charged the buyer: split %v+%v", s, br)
	}
	// A clean write failure is not a store failure: once the disk
	// recovers, sales proceed and the seq handed back was reused.
	failing = false
	if err := d.Healthy(); err != nil {
		t.Fatalf("clean journal failure latched the store: %v", err)
	}
	p, err := b.BuyAtPointContext(context.Background(), markettest.Model, menu[0].Delta)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 2 {
		t.Fatalf("recovered sale got seq %d, want 2 (no gap)", p.Seq)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, rs, err := market.OpenDurableLedger(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Transactions != 2 || rs.Skips != 0 || len(rs.Lost) != 0 {
		t.Fatalf("recovered accounting %+v, want 2 contiguous transactions", rs)
	}
}
