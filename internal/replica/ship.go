package replica

// The shipper: one tail-follow loop per target. It learns the
// follower's cursor from /replica/status and streams chunks of framed
// records from the local store's ReadFrom, from frame 0 for a follower
// that holds nothing. The hop is guarded by the shared resilience kit
// — retry with jittered backoff per shipment, a per-target circuit
// breaker so a dead follower costs one probe per cooldown instead of a
// hot loop, and optional chaos (latency, partition) injected before
// every POST.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/resilience"
	"github.com/datamarket/mbp/internal/rng"
	"github.com/datamarket/mbp/internal/store"
)

// errDeposed reports a 409 from a peer: a higher epoch exists and
// this leader must step down.
type errDeposed struct {
	epoch  uint64
	leader string
}

func (e *errDeposed) Error() string {
	return fmt.Sprintf("replica: fenced by epoch %d", e.epoch)
}

// errRewind reports a 412: the follower is at a lower cursor than the
// shipment assumed, so the shipper rewinds to it.
type errRewind struct{ frames uint64 }

func (e *errRewind) Error() string {
	return fmt.Sprintf("replica: follower cursor at %d, rewinding", e.frames)
}

type shipper struct {
	n       *Node
	target  string
	breaker *resilience.Breaker
	r       *rng.RNG
	// wake cuts the idle poll short when a quorum waiter needs this
	// target's ack (Node.WaitQuorum); one slot, so a wake sent while
	// the shipper is busy is kept for its next idle wait.
	wake chan struct{}

	metShipped *obs.Counter
	metErrs    *obs.Counter
	metLagF    *obs.Gauge
	metLagS    *obs.Gauge

	cursor     uint64
	haveCursor bool

	// caughtMu guards lastCaught, the last instant this target held
	// the full stream (Status reads it from another goroutine).
	caughtMu   sync.Mutex
	lastCaught time.Time
}

func newShipper(n *Node, target string, idx uint64) *shipper {
	return &shipper{
		n:          n,
		target:     target,
		breaker:    resilience.NewBreaker(n.cfg.Breaker),
		r:          rng.Stream(n.cfg.Seed, idx+1),
		wake:       make(chan struct{}, 1),
		metShipped: obs.Default.Counter(obs.Name("replica.frames_shipped_total", "target", target)),
		metErrs:    obs.Default.Counter(obs.Name("replica.ship_errors_total", "target", target)),
		metLagF:    obs.Default.Gauge(obs.Name("replica.lag_frames", "target", target)),
		metLagS:    obs.Default.Gauge(obs.Name("replica.lag_seconds", "target", target)),
		lastCaught: time.Now(),
	}
}

// run tails the local store into the target until ctx is canceled or
// the leader is deposed.
func (s *shipper) run(ctx context.Context) {
	for ctx.Err() == nil {
		progressed, err := s.step(ctx)
		s.updateLag()
		if err != nil {
			var dep *errDeposed
			if errors.As(err, &dep) {
				s.n.stepDown(dep.epoch, dep.leader)
				return
			}
			if ctx.Err() != nil {
				return
			}
			s.metErrs.Inc()
			s.sleep(ctx, s.backoff(), nil)
			continue
		}
		if !progressed {
			s.sleep(ctx, s.n.cfg.Poll, s.wake)
		}
	}
}

// step advances the target by one unit of work: learning the cursor or
// shipping one chunk. It reports whether it moved data (false = caught
// up, poll before retrying).
func (s *shipper) step(ctx context.Context) (bool, error) {
	if !s.haveCursor {
		st, err := s.probe(ctx)
		if err != nil {
			return false, err
		}
		if st.Epoch > s.n.cfg.Store.Epoch() {
			return false, &errDeposed{epoch: st.Epoch, leader: st.Leader}
		}
		s.cursor = st.Frames
		s.haveCursor = true
		s.n.noteAck(s.target, st.Frames)
	}
	batch, next, err := s.n.cfg.Store.ReadFrom(s.cursor, s.n.cfg.ChunkBytes)
	if err != nil {
		return false, err
	}
	if len(batch) == 0 {
		// Caught up. The follower's ack already covers s.cursor.
		return false, nil
	}
	acked, err := s.postFrames(ctx, s.cursor, batch)
	if err != nil {
		var rw *errRewind
		if errors.As(err, &rw) {
			s.cursor = rw.frames
			return true, nil
		}
		return false, err
	}
	s.metShipped.Add(uint64(len(batch)))
	s.n.noteAck(s.target, acked)
	s.cursor = next
	if acked > next {
		s.cursor = acked
	}
	return true, nil
}

// postFrames ships one chunk under retry + breaker + chaos. On success
// it returns the follower's durable cursor.
func (s *shipper) postFrames(ctx context.Context, cursor uint64, batch [][]byte) (uint64, error) {
	body := store.EncodeFrames(nil, batch)
	var acked uint64
	err := s.n.cfg.Retry.Do(ctx, s.r, func(int) error {
		if err := s.breaker.Allow(); err != nil {
			return err
		}
		f, err := s.postOnce(ctx, cursor, body)
		s.breaker.Record(err)
		if err != nil {
			return err
		}
		acked = f
		return nil
	})
	return acked, err
}

// postOnce is a single POST /replica/frames attempt.
func (s *shipper) postOnce(ctx context.Context, cursor uint64, body []byte) (uint64, error) {
	if err := s.n.cfg.Chaos.Delay(ctx); err != nil {
		return 0, err
	}
	if err := s.n.cfg.Chaos.Partition(ctx); err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.target+"/replica/frames", bytes.NewReader(body))
	if err != nil {
		return 0, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(headerEpoch, strconv.FormatUint(s.n.cfg.Store.Epoch(), 10))
	req.Header.Set(headerLeader, s.n.cfg.Self)
	req.Header.Set(headerCursor, strconv.FormatUint(cursor, 10))
	resp, err := s.n.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return s.decodeShipResponse(resp)
}

// decodeShipResponse maps the wire statuses onto shipper control flow.
func (s *shipper) decodeShipResponse(resp *http.Response) (uint64, error) {
	switch resp.StatusCode {
	case http.StatusOK:
		var fr framesResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			return 0, err
		}
		return fr.Frames, nil
	case http.StatusPreconditionFailed:
		var fr framesResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			return 0, err
		}
		return 0, resilience.Permanent(&errRewind{frames: fr.Frames})
	case http.StatusConflict:
		var fe fencedResponse
		if err := json.NewDecoder(resp.Body).Decode(&fe); err != nil {
			return 0, err
		}
		return 0, resilience.Permanent(&errDeposed{epoch: fe.Epoch, leader: fe.Leader})
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("replica: %s: HTTP %d: %s", s.target, resp.StatusCode, msg)
	}
}

// probe fetches the target's status to learn its cursor.
func (s *shipper) probe(ctx context.Context) (statusResponse, error) {
	if err := s.n.cfg.Chaos.Partition(ctx); err != nil {
		return statusResponse{}, err
	}
	return s.n.probeStatus(ctx, s.target)
}

// updateLag refreshes this target's labeled lag gauges and the plain
// aggregate (max over targets) the SLO evaluator watches.
func (s *shipper) updateLag() {
	head := s.n.cfg.Store.Frames()
	s.n.ackMu.Lock()
	acked := s.n.acked[s.target]
	s.n.ackMu.Unlock()
	var lagF uint64
	if head > acked {
		lagF = head - acked
	}
	s.caughtMu.Lock()
	if lagF == 0 {
		s.lastCaught = time.Now()
	}
	s.caughtMu.Unlock()
	lagS := s.lagSeconds()
	s.metLagF.Set(float64(lagF))
	s.metLagS.Set(lagS)

	// Aggregate across the shippers of the current leadership term.
	s.n.leadMu.Lock()
	shippers := append([]*shipper(nil), s.n.shippers...)
	s.n.leadMu.Unlock()
	var maxF, maxS float64
	s.n.ackMu.Lock()
	for _, sh := range shippers {
		if lag := float64(head) - float64(s.n.acked[sh.target]); lag > maxF {
			maxF = lag
		}
	}
	s.n.ackMu.Unlock()
	for _, sh := range shippers {
		if v := sh.lagSeconds(); v > maxS {
			maxS = v
		}
	}
	if maxF < 0 {
		maxF = 0
	}
	metLagFrames.Set(maxF)
	metLagSeconds.Set(maxS)
}

// lagSeconds reports how long this target has been behind the head
// (0 when caught up).
func (s *shipper) lagSeconds() float64 {
	s.caughtMu.Lock()
	defer s.caughtMu.Unlock()
	if time.Since(s.lastCaught) <= 0 {
		return 0
	}
	return time.Since(s.lastCaught).Seconds()
}

// backoff is the sleep after a failed step: the retry policy's cap,
// jittered, floored at the poll interval.
func (s *shipper) backoff() time.Duration {
	d := s.n.cfg.Retry.MaxDelay
	if d <= 0 {
		d = 250 * time.Millisecond
	}
	j := time.Duration(s.r.Uniform(0.5, 1.5) * float64(d))
	if j < s.n.cfg.Poll {
		j = s.n.cfg.Poll
	}
	return j
}

// sleep waits d, or until ctx ends or wake fires. A nil wake never
// fires, which keeps the error backoff unwakeable.
func (s *shipper) sleep(ctx context.Context, d time.Duration, wake <-chan struct{}) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	case <-wake:
	}
}
