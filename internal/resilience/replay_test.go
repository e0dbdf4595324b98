package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReplayCacheReplaysWithinTTL(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	ctx := context.Background()
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }

	v, replayed, err := c.Do(ctx, "k", fn)
	if err != nil || v != 42 || replayed {
		t.Fatalf("first Do = (%v, %v, %v), want (42, false, nil)", v, replayed, err)
	}
	v, replayed, err = c.Do(ctx, "k", fn)
	if err != nil || v != 42 || !replayed {
		t.Fatalf("second Do = (%v, %v, %v), want (42, true, nil)", v, replayed, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	// A different key executes fresh.
	if _, replayed, _ := c.Do(ctx, "other", fn); replayed {
		t.Fatal("distinct key replayed")
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

func TestReplayCacheTTLExpiry(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	clock := newFakeClock()
	c.SetClock(clock.now)
	ctx := context.Background()
	calls := 0
	fn := func() (int, error) { calls++; return calls, nil }

	c.Do(ctx, "k", fn)
	clock.advance(59 * time.Second)
	if v, replayed, _ := c.Do(ctx, "k", fn); !replayed || v != 1 {
		t.Fatalf("within TTL: (%v, %v), want (1, true)", v, replayed)
	}
	clock.advance(2 * time.Second)
	if v, replayed, _ := c.Do(ctx, "k", fn); replayed || v != 2 {
		t.Fatalf("after TTL: (%v, %v), want (2, false)", v, replayed)
	}
}

func TestReplayCacheCapacityEvictsOldest(t *testing.T) {
	c := NewReplayCache[int](2, time.Hour)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Do(ctx, key, func() (int, error) { return i, nil })
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	// k0 (oldest) evicted; k2 still cached.
	if _, replayed, _ := c.Do(ctx, "k0", func() (int, error) { return -1, nil }); replayed {
		t.Fatal("evicted key replayed")
	}
	if v, replayed, _ := c.Do(ctx, "k2", func() (int, error) { return -1, nil }); !replayed || v != 2 {
		t.Fatalf("k2 = (%v, %v), want (2, true)", v, replayed)
	}
}

func TestReplayCacheDoesNotCacheErrors(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.Do(ctx, "k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if v, replayed, err := c.Do(ctx, "k", func() (int, error) { calls++; return 7, nil }); err != nil || replayed || v != 7 {
		t.Fatalf("retry after error = (%v, %v, %v), want (7, false, nil)", v, replayed, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

func TestReplayCacheCoalescesConcurrentCallers(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	ctx := context.Background()
	var executions atomic.Int32
	release := make(chan struct{})
	const callers = 16

	var wg sync.WaitGroup
	results := make([]int, callers)
	owners := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, replayed, err := c.Do(ctx, "k", func() (int, error) {
				executions.Add(1)
				<-release
				return 99, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
			owners[i] = !replayed
		}(i)
	}
	// Let the goroutines pile onto the key, then release the flight.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	ownerCount := 0
	for i, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d, want 99", i, v)
		}
		if owners[i] {
			ownerCount++
		}
	}
	if ownerCount != 1 {
		t.Fatalf("%d callers claimed ownership, want exactly 1", ownerCount)
	}
}

func TestReplayCacheWaiterHonorsContext(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

// replayBenchCapacity is the broker's replay capacity
// (market.ReplayCapacity).
const replayBenchCapacity = 4096

// BenchmarkReplayCacheDo times one fresh keyed Do, a sale's path
// through the cache, with a fixed number of completed entries present.
// A fake clock moves 2ns per op under a TTL of 2·occupancy+1 ns, so
// every op finds exactly occupancy earlier completions alive and drops
// one: the one that just expired, or at full capacity the oldest.
func BenchmarkReplayCacheDo(b *testing.B) {
	for _, occupancy := range []int{0, 1024, replayBenchCapacity} {
		b.Run(fmt.Sprintf("occupancy=%d", occupancy), func(b *testing.B) {
			clock := newFakeClock()
			c := NewReplayCache[int](replayBenchCapacity, time.Duration(2*occupancy+1))
			c.SetClock(clock.now)
			keys := make([]string, occupancy+b.N)
			for i := range keys {
				keys[i] = strconv.Itoa(i)
			}
			ctx := context.Background()
			fn := func() (int, error) { return 1, nil }
			for _, k := range keys[:occupancy] {
				c.Do(ctx, k, fn)
				clock.advance(2)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, k := range keys[occupancy:] {
				if _, replayed, _ := c.Do(ctx, k, fn); replayed {
					b.Fatalf("fresh key %s replayed", k)
				}
				clock.advance(2)
			}
			b.StopTimer()
			if n, want := c.Len(), min(occupancy+1, replayBenchCapacity); n != want {
				b.Fatalf("Len = %d after the run, want %d", n, want)
			}
		})
	}
}

// BenchmarkReplayCacheSeed times rebuilding the cache from a journal
// as recovery does: 8000 entries, completed a millisecond apart, seeded
// in shuffled order into an empty cache that keeps the newest 4096.
func BenchmarkReplayCacheSeed(b *testing.B) {
	const n = 8000
	clock := newFakeClock()
	clock.advance(time.Hour)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewReplayCache[int](replayBenchCapacity, 10*time.Minute)
		c.SetClock(clock.now)
		for _, j := range order {
			c.Seed(keys[j], j, clock.now().Add(time.Duration(j-n)*time.Millisecond))
		}
		if c.Len() != replayBenchCapacity {
			b.Fatalf("Len = %d, want %d", c.Len(), replayBenchCapacity)
		}
	}
}
