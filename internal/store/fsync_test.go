package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentAppendsOverlapFsync: two concurrent FsyncAlways appends
// must have their fsyncs in flight at the same time. The fault hook
// lets an fsync through only once both have started, so a store that
// holds its lock across the fsync fails the first append after 2 s.
func TestConcurrentAppendsOverlapFsync(t *testing.T) {
	var started atomic.Int32
	both := make(chan struct{})
	faults := &Faults{Sync: func() error {
		if started.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil
		case <-time.After(2 * time.Second):
			return errors.New("no second fsync started within 2s")
		}
	}}
	dir := t.TempDir()
	s, _ := open(t, dir, Options{Policy: FsyncAlways, Faults: faults}, nil)
	errs := make(chan error, 2)
	for _, rec := range []string{"alpha", "beta"} {
		go func() { errs <- s.Append([]byte(rec)) }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if s.Frames() != 2 {
		t.Fatalf("frames = %d, want 2", s.Frames())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	s2, _ := open(t, dir, Options{}, &got)
	defer s2.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %q, want both records", got)
	}
}

// TestEarlierFsyncFailureFailsLaterAppend: of two overlapping appends,
// the second's fsync succeeds, and reaches the store, before the
// first's fails. The second's success does not commit the first:
// appends settle in write order, each on its own fsync, so the failure
// fails both, scrubs both and leaves the store healthy.
func TestEarlierFsyncFailureFailsLaterAppend(t *testing.T) {
	var calls atomic.Int32
	firstIn, secondSynced := make(chan struct{}), make(chan struct{})
	faults := &Faults{Sync: func() error {
		if calls.Add(1) == 1 {
			close(firstIn)
			select {
			case <-secondSynced:
			case <-time.After(2 * time.Second): // the second append never got to its fsync
			}
			return errInjected
		}
		return nil
	}}
	dir := t.TempDir()
	var synced atomic.Int32
	s, _ := open(t, dir, Options{Policy: FsyncAlways, Faults: faults, Hooks: Hooks{OnFsync: func() {
		if synced.Add(1) == 1 {
			close(secondSynced)
		}
	}}}, nil)
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- s.Append([]byte("alpha")) }()
	<-firstIn
	go func() { second <- s.Append([]byte("beta")) }()
	for name, errc := range map[string]chan error{"first": first, "second": second} {
		if err := <-errc; !errors.Is(err, errInjected) {
			t.Fatalf("%s append: %v, want the first one's fsync failure", name, err)
		}
	}
	if err := s.Healthy(); err != nil {
		t.Fatalf("failed fsync latched the store: %v", err)
	}
	if s.Frames() != 0 {
		t.Fatalf("frames = %d after both appends failed", s.Frames())
	}
	appendAll(t, s, "gamma")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	s2, _ := open(t, dir, Options{}, &got)
	defer s2.Close()
	if len(got) != 1 || string(got[0]) != "gamma" {
		t.Fatalf("recovered %q, want only the append after the repair", got)
	}
}

// TestFsyncLagShowsAnAppendInItsFsync: under FsyncAlways, FsyncLag
// reports how long an append has waited on its fsync, without waiting
// for that fsync, and 0 once the append has committed.
func TestFsyncLagShowsAnAppendInItsFsync(t *testing.T) {
	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	s, _ := open(t, t.TempDir(), Options{Policy: FsyncAlways, Faults: &Faults{Sync: func() error {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-time.After(2 * time.Second): // FsyncLag waited for this fsync
		}
		return nil
	}}}, nil)
	errc := make(chan error, 1)
	go func() { errc <- s.Append([]byte("alpha")) }()
	<-entered
	lag := s.FsyncLag()
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if lag <= 0 {
		t.Fatalf("FsyncLag during the fsync = %v, want the append's wait", lag)
	}
	if lag := s.FsyncLag(); lag != 0 {
		t.Fatalf("FsyncLag after the commit = %v, want 0", lag)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// readAll reads the whole stream through ReadFrom.
func readAll(t *testing.T, s *Store) [][]byte {
	t.Helper()
	var out [][]byte
	for cursor := uint64(0); ; {
		recs, next, err := s.ReadFrom(cursor, 1<<10)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", cursor, err)
		}
		if len(recs) == 0 {
			return out
		}
		for _, rec := range recs {
			out = append(out, append([]byte(nil), rec...))
		}
		cursor = next
	}
}

// TestConcurrentAppendsModel: writers append at FsyncAlways over small
// segments while a seeded fault hook fails fsyncs at random. Every
// failure leaves the store healthy, and the stream holds exactly the
// acknowledged records, each once and in each writer's order; a reopen
// recovers the same stream, frame count and digest.
func TestConcurrentAppendsModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var mu sync.Mutex
			r := rand.New(rand.NewSource(seed))
			var faulty atomic.Bool
			faulty.Store(true)
			var injected atomic.Int32
			faults := &Faults{Sync: func() error {
				mu.Lock()
				fail := r.Intn(8) == 0
				mu.Unlock()
				if fail && faulty.Load() {
					injected.Add(1)
					return errInjected
				}
				return nil
			}}
			dir := t.TempDir()
			o := Options{Policy: FsyncAlways, SegmentBytes: 512, Faults: faults}
			s, _ := open(t, dir, o, nil)
			writers := 4 + int(seed)%5
			const perWriter = 40
			acked := make([][]string, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					wr := rand.New(rand.NewSource(seed*100 + int64(w)))
					for i := 0; i < perWriter; i++ {
						batch := make([][]byte, 1+wr.Intn(3))
						for j := range batch {
							batch[j] = []byte(fmt.Sprintf("w%d-%d.%d-%x", w, i, j, wr.Int63n(1<<40)))
						}
						if err := s.Append(batch...); err != nil {
							if !errors.Is(err, errInjected) {
								t.Errorf("writer %d: append: %v", w, err)
								return
							}
							if err := s.Healthy(); err != nil {
								t.Errorf("writer %d: failed fsync left the store unhealthy: %v", w, err)
								return
							}
							continue
						}
						for _, rec := range batch {
							acked[w] = append(acked[w], string(rec))
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if injected.Load() == 0 {
				t.Fatal("no fsync failed: the test has no teeth")
			}
			faulty.Store(false)

			frames, digest, stream := s.Frames(), s.StreamDigest(), readAll(t, s)
			next := make([]int, writers)
			for i, rec := range stream {
				var w, k, j int
				if _, err := fmt.Sscanf(string(rec), "w%d-%d.%d-", &w, &k, &j); err != nil || w >= writers {
					t.Fatalf("frame %d = %q is no writer's record", i, rec)
				}
				if next[w] >= len(acked[w]) || acked[w][next[w]] != string(rec) {
					t.Fatalf("frame %d = %q, want writer %d's next acknowledged record", i, rec, w)
				}
				next[w]++
			}
			for w := range acked {
				if next[w] != len(acked[w]) {
					t.Fatalf("writer %d: %d of %d acknowledged records in the stream", w, next[w], len(acked[w]))
				}
			}
			if frames != uint64(len(stream)) {
				t.Fatalf("Frames() = %d, stream holds %d", frames, len(stream))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			var got [][]byte
			s2, stats := open(t, dir, o, &got)
			defer s2.Close()
			if stats.Segments < 2 {
				t.Fatalf("%d segments: the test never rotated", stats.Segments)
			}
			if s2.Frames() != frames || s2.StreamDigest() != digest {
				t.Fatalf("reopened at frames %d digest %08x, closed at %d/%08x", s2.Frames(), s2.StreamDigest(), frames, digest)
			}
			for name, recs := range map[string][][]byte{"recovered": got, "re-read": readAll(t, s2)} {
				if len(recs) != len(stream) {
					t.Fatalf("%s %d records, closed with %d", name, len(recs), len(stream))
				}
				for i := range recs {
					if !bytes.Equal(recs[i], stream[i]) {
						t.Fatalf("%s frame %d = %q, closed with %q", name, i, recs[i], stream[i])
					}
				}
			}
		})
	}
}

// BenchmarkAppend appends one checkout sale's record (a 337-byte
// frame) at FsyncAlways from 1, 2 and 8 goroutines, and reports
// appends/s and the p50/p90 latency of one Append. After Close it
// checks that every record recovers, once.
func BenchmarkAppend(b *testing.B) {
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			dir := b.TempDir()
			s, _, err := Open(dir, Options{Policy: FsyncAlways}, nil)
			if err != nil {
				b.Fatal(err)
			}
			lat := make([][]time.Duration, writers)
			var issued atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := issued.Add(1); i <= int64(b.N); i = issued.Add(1) {
						rec := make([]byte, 337-frameHeaderSize)
						binary.LittleEndian.PutUint64(rec, uint64(i))
						t0 := time.Now()
						if err := s.Append(rec); err != nil {
							b.Error(err)
							return
						}
						lat[w] = append(lat[w], time.Since(t0))
					}
				}()
			}
			wg.Wait()
			el := time.Since(start)
			b.StopTimer()
			if b.Failed() {
				return
			}
			var all []time.Duration
			for _, l := range lat {
				all = append(all, l...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			us := func(q float64) float64 { return float64(all[int(q*float64(len(all)-1))]) / 1e3 }
			b.ReportMetric(float64(len(all))/el.Seconds(), "appends/s")
			b.ReportMetric(us(0.5), "p50-us")
			b.ReportMetric(us(0.9), "p90-us")
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			seen := make([]bool, b.N+1)
			_, stats, err := Open(dir, Options{}, func(rec []byte) error {
				i := binary.LittleEndian.Uint64(rec)
				if i == 0 || i > uint64(b.N) || seen[i] {
					return fmt.Errorf("record %d recovered out of range or twice", i)
				}
				seen[i] = true
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if stats.Records != b.N {
				b.Fatalf("recovered %d records, appended %d", stats.Records, b.N)
			}
		})
	}
}
