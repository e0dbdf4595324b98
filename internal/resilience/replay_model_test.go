package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// replayModel is the reference ReplayCache must match step for step:
// completed entries in a plain slice kept sorted by (expiry,
// completion order), rescanned in full on every eviction, plus the set
// of keys in flight.
type replayModel struct {
	capacity int
	ttl      time.Duration
	done     []modelEntry
	inflight map[string]bool
	seq      int
}

type modelEntry struct {
	key     string
	val     int
	expires time.Time
	seq     int
}

func (m *replayModel) len() int { return len(m.done) + len(m.inflight) }

func (m *replayModel) lookup(key string) (modelEntry, bool) {
	for _, e := range m.done {
		if e.key == key {
			return e, true
		}
	}
	return modelEntry{}, false
}

// evict drops every entry strictly past its expiry, then the front of
// the order while over capacity; in-flight keys count but never go.
func (m *replayModel) evict(now time.Time) {
	kept := m.done[:0]
	for _, e := range m.done {
		if !now.After(e.expires) {
			kept = append(kept, e)
		}
	}
	m.done = kept
	for m.len() > m.capacity && len(m.done) > 0 {
		m.done = m.done[1:]
	}
}

// complete files key as completed at the given time, after every
// entry that expires no later (completion order breaks ties).
func (m *replayModel) complete(key string, val int, at, now time.Time) {
	m.seq++
	e := modelEntry{key: key, val: val, expires: at.Add(m.ttl), seq: m.seq}
	i := sort.Search(len(m.done), func(i int) bool { return m.done[i].expires.After(e.expires) })
	m.done = append(m.done, modelEntry{})
	copy(m.done[i+1:], m.done[i:])
	m.done[i] = e
	m.evict(now)
}

// replayRun drives one cache and its model through the same random
// sequence of operations, failing on the first divergence.
type replayRun struct {
	t     *testing.T
	r     *rand.Rand
	clock *fakeClock
	c     *ReplayCache[int]
	m     *replayModel
	keys  int
	vals  int
	step  int
}

var errModelBoom = errors.New("boom")

func (run *replayRun) key() string { return fmt.Sprintf("k%d", run.r.Intn(run.keys)) }

func (run *replayRun) fail(format string, args ...any) {
	run.t.Helper()
	run.t.Fatalf("step %d: %s", run.step, fmt.Sprintf(format, args...))
}

func (run *replayRun) checkLen(op string) {
	run.t.Helper()
	if got, want := run.c.Len(), run.m.len(); got != want {
		run.fail("%s: Len = %d, model %d", op, got, want)
	}
}

// do issues a Do on a random key. The owning flight may fail, move the
// clock before completing, and (at the top level only) run nested
// operations while its own key is in flight.
func (run *replayRun) do(nested bool) {
	run.t.Helper()
	key := run.key()
	run.m.evict(run.clock.now())
	want, replay := run.m.lookup(key)
	if run.m.inflight[key] {
		// Only the enclosing flight is ever in flight; a waiter whose
		// ctx is already done must give up rather than block.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		v, replayed, err := run.c.Do(ctx, key, func() (int, error) {
			run.fail("Do(%s) executed while the key was in flight", key)
			return 0, nil
		})
		if v != 0 || replayed || !errors.Is(err, context.Canceled) {
			run.fail("Do(%s) on in-flight key = (%d, %v, %v), want (0, false, canceled)", key, v, replayed, err)
		}
		return
	}
	fails := run.r.Intn(5) == 0
	run.vals++
	val := run.vals
	ran := false
	v, replayed, err := run.c.Do(context.Background(), key, func() (int, error) {
		ran = true
		run.m.inflight[key] = true
		run.checkLen("in flight")
		if !nested {
			for n := run.r.Intn(3); n > 0; n-- {
				run.nestedOp()
			}
		}
		if run.r.Intn(3) == 0 {
			run.advance()
		}
		delete(run.m.inflight, key)
		if fails {
			return 0, errModelBoom
		}
		run.m.complete(key, val, run.clock.now(), run.clock.now())
		return val, nil
	})
	switch {
	case replay:
		if ran || v != want.val || !replayed || err != nil {
			run.fail("Do(%s) = (%d, %v, %v) ran=%v, want replay of %d", key, v, replayed, err, ran, want.val)
		}
	case fails:
		if !ran || replayed || !errors.Is(err, errModelBoom) {
			run.fail("Do(%s) = (%d, %v, %v) ran=%v, want fresh failure", key, v, replayed, err, ran)
		}
	default:
		if !ran || v != val || replayed || err != nil {
			run.fail("Do(%s) = (%d, %v, %v) ran=%v, want fresh %d", key, v, replayed, err, ran, val)
		}
	}
}

// seed issues a Seed whose completion time is out of order, exactly at
// or past the TTL boundary, or equal to a live entry's.
func (run *replayRun) seed() {
	run.t.Helper()
	key := run.key()
	now := run.clock.now()
	var at time.Time
	switch run.r.Intn(6) {
	case 0:
		at = now.Add(-run.m.ttl) // expires now: refused
	case 1:
		at = now.Add(-run.m.ttl - time.Duration(1+run.r.Intn(10))*time.Millisecond)
	case 2:
		at = now.Add(-run.m.ttl + time.Nanosecond)
	case 3:
		if len(run.m.done) > 0 {
			at = run.m.done[run.r.Intn(len(run.m.done))].expires.Add(-run.m.ttl)
			break
		}
		fallthrough
	default:
		at = now.Add(-time.Duration(run.r.Int63n(int64(run.m.ttl))))
	}
	run.vals++
	val := run.vals
	_, present := run.m.lookup(key)
	present = present || run.m.inflight[key]
	want := !present && now.Before(at.Add(run.m.ttl))
	if want {
		run.m.complete(key, val, at, now)
	}
	if got := run.c.Seed(key, val, at); got != want {
		run.fail("Seed(%s, at %v) = %v, want %v (now %v)", key, at.Sub(time.Unix(0, 0)), got, want, now.Sub(time.Unix(0, 0)))
	}
}

// advance moves the clock: not at all (so expiries tie), exactly onto
// the soonest expiry, just past it, or by a random step.
func (run *replayRun) advance() {
	switch run.r.Intn(5) {
	case 0:
	case 1, 2:
		if len(run.m.done) > 0 {
			next := run.m.done[0].expires
			if run.r.Intn(2) == 0 {
				next = next.Add(time.Nanosecond)
			}
			if d := next.Sub(run.clock.now()); d > 0 {
				run.clock.advance(d)
			}
		}
	default:
		run.clock.advance(time.Duration(run.r.Int63n(int64(run.m.ttl / 4))))
	}
}

func (run *replayRun) nestedOp() {
	run.t.Helper()
	if run.r.Intn(2) == 0 {
		run.seed()
	} else {
		run.do(true)
	}
	run.checkLen("nested")
}

func TestReplayCacheMatchesReferenceModel(t *testing.T) {
	const ttl = 100 * time.Millisecond
	for _, seed := range []int64{1, 2, 3, 4} {
		for capacity := 1; capacity <= 8; capacity++ {
			t.Run(fmt.Sprintf("seed%d/cap%d", seed, capacity), func(t *testing.T) {
				clock := newFakeClock()
				c := NewReplayCache[int](capacity, ttl)
				c.SetClock(clock.now)
				run := &replayRun{
					t: t, r: rand.New(rand.NewSource(seed)), clock: clock, c: c,
					m:    &replayModel{capacity: capacity, ttl: ttl, inflight: map[string]bool{}},
					keys: 2*capacity + 3,
				}
				for run.step = 0; run.step < 2500; run.step++ {
					switch run.r.Intn(3) {
					case 0:
						run.do(false)
					case 1:
						run.seed()
					default:
						run.advance()
					}
					run.checkLen("after step")
				}
			})
		}
	}
}
