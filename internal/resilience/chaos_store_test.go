package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/datamarket/mbp/internal/store"
)

func TestStoreFaultsNil(t *testing.T) {
	var c *Chaos
	if c.StoreFaults() != nil {
		t.Fatal("nil injector produced non-nil faults")
	}
}

func TestStoreFaultsShortWriteFailsCleanly(t *testing.T) {
	c := NewChaos(1, ChaosConfig{ShortProb: 1})
	f := c.StoreFaults()
	n, err := f.Write(make([]byte, 64))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write returned (%d, %v), want (0, ErrInjected)", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync failed with only ShortProb set: %v", err)
	}
}

func TestStoreFaultsTornWriteIsPartial(t *testing.T) {
	c := NewChaos(1, ChaosConfig{TornProb: 1})
	f := c.StoreFaults()
	frame := make([]byte, 64)
	for i := 0; i < 32; i++ {
		n, err := f.Write(frame)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("torn write returned err=%v", err)
		}
		if n <= 0 || n >= len(frame) {
			t.Fatalf("torn write length %d not strictly inside (0, %d)", n, len(frame))
		}
	}
}

func TestStoreFaultsFsyncError(t *testing.T) {
	c := NewChaos(1, ChaosConfig{FsyncErrProb: 1})
	f := c.StoreFaults()
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync returned %v, want ErrInjected", err)
	}
	if n, err := f.Write(make([]byte, 8)); n != 8 || err != nil {
		t.Fatalf("write returned (%d, %v) with only FsyncErrProb set", n, err)
	}
}

func TestParseChaosStoreKeys(t *testing.T) {
	c, err := ParseChaos("torn=0.25,short=0.5,fsync-err=0.75,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if cfg.TornProb != 0.25 || cfg.ShortProb != 0.5 || cfg.FsyncErrProb != 0.75 {
		t.Fatalf("parsed %+v", cfg)
	}
	for _, bad := range []string{"torn=1.5", "short=-0.1", "fsync-err=nope"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestStoreFaultsEndToEnd wires the injector into a real store: a torn
// write latches the store failed like a crash, and reopening recovers
// the pre-tear records with the tear truncated away.
func TestStoreFaultsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(7, ChaosConfig{})
	s, _, err := store.Open(dir, store.Options{Faults: c.StoreFaults()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("pre-fault record")); err != nil {
		t.Fatal(err)
	}
	c.Update(ChaosConfig{TornProb: 1})
	if err := s.Append([]byte("torn record")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under torn chaos returned %v", err)
	}
	if err := s.Healthy(); err == nil {
		t.Fatal("torn write left the store healthy")
	}
	// The "crashed" process is abandoned without Close; recovery
	// truncates the tear and replays the surviving record.
	var recs [][]byte
	s2, stats, err := store.Open(dir, store.Options{}, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.Records != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("recovery stats %+v, want 1 record and a truncated tear", stats)
	}
	if string(recs[0]) != "pre-fault record" {
		t.Fatalf("recovered %q", recs[0])
	}
}

func TestReplayCacheSeed(t *testing.T) {
	c := NewReplayCache[string](4, time.Minute)
	base := time.Unix(1000, 0)
	now := base
	c.SetClock(func() time.Time { return now })

	if !c.Seed("k1", "journaled", base.Add(-30*time.Second)) {
		t.Fatal("in-TTL seed rejected")
	}
	v, replayed, err := c.Do(context.Background(), "k1", func() (string, error) { return "fresh", nil })
	if err != nil || !replayed || v != "journaled" {
		t.Fatalf("Do after seed = (%q, %v, %v), want journaled replay", v, replayed, err)
	}
	// Expired at completedAt+TTL, exactly as a live entry would.
	now = base.Add(31 * time.Second)
	if _, replayed, _ := c.Do(context.Background(), "k1", func() (string, error) { return "fresh", nil }); replayed {
		t.Fatal("seeded entry outlived its original TTL")
	}

	if c.Seed("k2", "stale", base.Add(-2*time.Minute)) {
		t.Fatal("already-expired seed accepted")
	}
	// A live entry wins over the journal.
	c.Do(context.Background(), "k3", func() (string, error) { return "live", nil })
	if c.Seed("k3", "journaled", now) {
		t.Fatal("seed displaced a live entry")
	}
}
