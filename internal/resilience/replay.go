package resilience

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// ReplayCache makes keyed operations idempotent: the first caller of
// a key executes the operation, every later caller within the TTL
// gets the stored result back instead of re-executing (and
// re-charging). Concurrent callers of an in-flight key coalesce onto
// the one execution (singleflight), so a client retrying while its
// first attempt is still running cannot trigger a duplicate either.
//
// Only successes are stored: a failed execution is broadcast to the
// callers that coalesced onto it and then forgotten, so the next
// attempt with the same key executes fresh.
//
// The cache is bounded two ways: entries expire TTL after completion,
// and when the entry count exceeds the capacity the earliest-completed
// entries are evicted, whatever order they were seeded in (in-flight
// entries are never evicted). Completed entries sit in a min-heap by
// expiry, so eviction touches only the entries it removes.
type ReplayCache[V any] struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	now      func() time.Time
	entries  map[string]*replayEntry[V]
	byExpiry expiryHeap[V] // completed entries, soonest expiry first
	seq      uint64        // completions so far; orders equal expiries
}

type replayEntry[V any] struct {
	done chan struct{} // closed when the flight completes
	val  V
	err  error
	key  string
	// expires has its monotonic reading stripped: journal stamps
	// handed to Seed carry none, so live entries drop theirs too and
	// every pair of heap keys compares on the wall clock.
	expires time.Time
	seq     uint64 // completion order, first in first out among ties
}

// expiryHeap orders completed entries by (expires, seq) for
// container/heap.
type expiryHeap[V any] []*replayEntry[V]

func (h expiryHeap[V]) Len() int { return len(h) }

func (h expiryHeap[V]) Less(i, j int) bool {
	if c := h[i].expires.Compare(h[j].expires); c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}

func (h expiryHeap[V]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *expiryHeap[V]) Push(x any) { *h = append(*h, x.(*replayEntry[V])) }

func (h *expiryHeap[V]) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// NewReplayCache returns a cache holding at most capacity completed
// entries for ttl each. capacity and ttl must be positive.
func NewReplayCache[V any](capacity int, ttl time.Duration) *ReplayCache[V] {
	if capacity <= 0 {
		panic("resilience: replay cache capacity must be positive")
	}
	if ttl <= 0 {
		panic("resilience: replay cache ttl must be positive")
	}
	return &ReplayCache[V]{
		capacity: capacity,
		ttl:      ttl,
		now:      time.Now,
		entries:  make(map[string]*replayEntry[V]),
	}
}

// SetClock overrides the cache's clock; tests use it to drive TTL
// expiry deterministically. Not safe to call concurrently with Do.
func (c *ReplayCache[V]) SetClock(now func() time.Time) { c.now = now }

// Do executes fn once per key: the first caller runs it, concurrent
// callers with the same key wait for that run, and later callers
// within the TTL replay the stored result. replayed reports whether
// the result came from a previous or shared execution rather than a
// fresh one owned by this caller. If ctx is done while waiting on
// another caller's flight, Do returns ctx's error (the flight itself
// keeps running and its result is still cached).
func (c *ReplayCache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, replayed bool, err error) {
	c.mu.Lock()
	c.evictLocked()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			return e.val, true, e.err
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
	e := &replayEntry[V]{done: make(chan struct{}), key: key}
	c.entries[key] = e
	c.mu.Unlock()

	e.val, e.err = fn()

	c.mu.Lock()
	if e.err != nil {
		// Failures are not replayable: drop the entry so the next
		// attempt executes fresh. Waiters already coalesced onto this
		// flight still observe the error through the closed channel.
		delete(c.entries, key)
	} else {
		c.completeLocked(e, c.now())
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, false, e.err
}

// Seed installs a completed successful entry as if Do had executed it
// at completedAt — the recovery path uses it to rebuild idempotency
// state from a journal after a restart, so a client retry that
// straddles the crash still replays the original result. The entry
// expires at completedAt+TTL exactly as the original would have;
// already-expired entries are ignored, as is a key that is present
// (live state wins over the journal). Reports whether the entry was
// installed.
func (c *ReplayCache[V]) Seed(key string, v V, completedAt time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	if !c.now().Before(completedAt.Add(c.ttl)) {
		return false
	}
	e := &replayEntry[V]{done: make(chan struct{}), val: v, key: key}
	close(e.done)
	c.entries[key] = e
	c.completeLocked(e, completedAt)
	return true
}

// Len returns the number of entries (completed and in-flight).
func (c *ReplayCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// completeLocked files e, already in entries, as completed at
// completedAt and evicts whatever that pushes out.
func (c *ReplayCache[V]) completeLocked(e *replayEntry[V], completedAt time.Time) {
	e.expires = completedAt.Add(c.ttl).Round(0)
	c.seq++
	e.seq = c.seq
	heap.Push(&c.byExpiry, e)
	c.evictLocked()
}

// evictLocked removes expired entries and, while still over capacity,
// the earliest-completed ones. Expired entries are the front of the
// heap, so with nothing to remove this costs one peek.
func (c *ReplayCache[V]) evictLocked() {
	now := c.now()
	for len(c.byExpiry) > 0 {
		e := c.byExpiry[0]
		if !now.After(e.expires) && len(c.entries) <= c.capacity {
			return
		}
		heap.Pop(&c.byExpiry)
		delete(c.entries, e.key)
	}
}
