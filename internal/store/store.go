// Package store is a small, stdlib-only storage engine: an append-only
// write-ahead log of opaque records, CRC32C-framed and length-prefixed,
// with segment rotation, a configurable fsync policy, and a recovery
// reader that distinguishes the torn tail a crash leaves behind
// (truncated, tolerated) from corruption in the body of the log (a
// typed error, never silently dropped).
//
// The engine knows nothing about what it stores. Callers append
// serialized records and rebuild their state at Open time from every
// record ever appended. internal/market journals its transaction
// ledger and idempotency replays through it;
// observability and fault injection are threaded in via Hooks and
// Faults so the package itself stays dependency-free.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fsync policies trade write latency against the durability of
// acknowledged appends; see docs/durability.md for the full table.
const (
	// FsyncAlways syncs after every append: an acknowledged record is
	// on disk before Append returns. The safe default.
	FsyncAlways Policy = iota
	// FsyncInterval acknowledges from the OS page cache and syncs in
	// the background every Interval: a crash loses at most the last
	// interval's acknowledged appends.
	FsyncInterval
	// FsyncNever leaves syncing to the OS (plus rotation and Close,
	// which always sync): fastest, weakest. FsyncLag reads 0 under it.
	FsyncNever
)

// Policy selects when appends are fsynced.
type Policy int

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy resolves the -fsync flag values "always", "interval" and
// "never".
func ParsePolicy(s string) (Policy, error) {
	switch strings.TrimSpace(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
}

// Hooks observe the write path without coupling the engine to a
// metrics package. Nil fields are skipped. Callbacks run under the
// store lock, never two at once, but not always on the goroutine of the
// append they describe: keep them O(1) (atomic counter bumps).
type Hooks struct {
	// OnAppend fires once per record when an Append commits, with the
	// latency of that call from its start to the commit.
	OnAppend func(d time.Duration)
	// OnFsync fires after each successful fsync of the live segment,
	// including one whose append then fails because an append written
	// before it failed.
	OnFsync func()
}

// Faults intercept the write path for fault injection (the chaos
// harness wires resilience.Chaos here). Nil fields are no-ops.
type Faults struct {
	// Write is consulted with the framed bytes one Append is about to
	// write (every frame of the call, in order). (len(frame), nil)
	// proceeds normally. (0, err) fails the append cleanly — nothing
	// hits disk, the store stays healthy. (n, err) with
	// 0 < n < len(frame) simulates a crash mid-write: the first n bytes
	// land on disk and the store fails permanently, exactly as if the
	// process had died — recovery on reopen keeps the whole frames among
	// them and truncates the torn one.
	Write func(frame []byte) (n int, err error)
	// Sync is consulted before each fsync; a non-nil error fails it.
	// Under FsyncAlways appends fsync outside the store lock, so it may
	// be called from several goroutines at once.
	Sync func() error
}

// Options configure Open.
type Options struct {
	// Policy is the fsync policy (default FsyncAlways).
	Policy Policy
	// Interval is the background sync period under FsyncInterval
	// (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates the live segment once it grows past this
	// size (default 64 MiB).
	SegmentBytes int64
	// Hooks observe appends and fsyncs.
	Hooks Hooks
	// Faults injects write-path failures; nil disables.
	Faults *Faults
}

const (
	defaultSegmentBytes = 64 << 20
	defaultSyncInterval = 100 * time.Millisecond

	// allocStep is how far the live segment's file is zero-filled ahead
	// of its frames (see preallocate), so that most appends overwrite
	// allocated blocks of a file whose size does not change.
	allocStep = 1 << 20

	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".db"
)

var (
	// ErrCorrupt matches (via errors.Is) any mid-log corruption
	// surfaced at recovery; the concrete error is a *CorruptError with
	// the segment, offset and reason.
	ErrCorrupt = errors.New("store: corrupt wal")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrSnapshotFound matches (via errors.Is) the error Open returns
	// for a directory holding a compaction snapshot (snap-*.db), which
	// older versions wrote. Stores no longer read snapshots, and
	// replaying only the segments after one would silently drop the
	// rows it holds, so the error names the file instead.
	ErrSnapshotFound = errors.New("store: directory holds a compaction snapshot this version cannot read")
)

// RecoveryStats summarizes what Open rebuilt.
type RecoveryStats struct {
	// Records is the number of WAL records replayed.
	Records int
	// Segments is the number of WAL segments scanned.
	Segments int
	// TruncatedBytes is the number of bytes cut from the final segment:
	// a torn tail and, after an unclean stop, the zero-filled
	// preallocation behind the last frame (0 after a clean Close).
	TruncatedBytes int64
}

// Store is an append-only record log in a directory. All methods are
// safe for concurrent use. Appends write their frames one at a time,
// under the store lock, so the file holds them in the order they took
// it; under FsyncAlways each then fsyncs outside the lock, so
// concurrent appends overlap their fsyncs instead of queueing behind
// each other's, readers do not wait for them, and appends commit in
// write order.
type Store struct {
	dir      string
	policy   Policy
	interval time.Duration
	segBytes int64
	hooks    Hooks
	faults   *Faults

	mu      sync.Mutex
	f       *os.File // live segment
	index   uint64   // live segment index
	size    int64    // end of the live segment's last frame
	alloc   int64    // live segment's file size: size plus its zero-filled preallocation
	scratch []byte   // frame-encoding buffer, reused across appends
	closed  bool
	failErr error
	// dirtySince is when the oldest not-yet-synced append landed (zero
	// when everything durable). FsyncLag reads it; the market auditor
	// alarms when the background syncer falls behind.
	dirtySince time.Time

	dirty atomic.Bool   // unsynced appends outstanding (interval/never)
	stop  chan struct{} // closes the background syncer
	done  chan struct{} // background syncer exited

	// The FsyncAlways commit path (see syncAppend), guarded by mu.
	// queue holds the appends written but not yet settled, in write
	// order, each fsync in flight on its own descriptor of the live
	// segment; fds are the idle ones. While sealing (the append that
	// filled the segment is in flight) or repairing (a failed fsync is
	// being scrubbed), new appends wait. settled is signalled whenever
	// any of this changes.
	queue     []*pendingAppend
	fds       []*os.File
	sealing   bool
	repairing bool
	settled   sync.Cond

	// Replication bookkeeping (see replicate.go). frames is the logical
	// record cursor: how many records the stream holds, identical across
	// replicas because every node appends the same record sequence.
	// digest chains a CRC32C over every payload in stream order; epoch
	// is the persisted leader-fencing epoch. segs and the digest ring
	// are guarded by mu.
	frames   atomic.Uint64
	digest   atomic.Uint32
	epoch    atomic.Uint64
	segs     []liveSeg     // frame index of the segments, oldest first; the last is being appended to
	ring     []digestPoint // recent (frames, digest) pairs for divergence audits
	ringHead int
}

// pendingAppend is one FsyncAlways append between its write and its
// settling: committed (done, err nil) or failed (done, err set).
type pendingAppend struct {
	start   int64 // offset of its first frame in the live segment
	recs    [][]byte
	began   time.Time
	synced  bool  // its fsync returned
	syncErr error // what the fsync returned
	done    bool
	err     error
}

// liveSeg is the frame index of one segment: the global frame
// number of its first record and the end offset of every committed
// frame in it, so frame first+k occupies bytes [ends[k-1], ends[k])
// (from 0 for k = 0). ReadFrom uses it to read exactly the frames it
// returns; it costs 8 bytes per frame.
type liveSeg struct {
	idx   uint64
	first uint64
	ends  []int64
}

// Open opens (creating if needed) the store in dir and replays its
// persisted state: every record is handed to onRecord in append order.
// A torn final frame — the signature of a crash mid-append — and the
// zeros an unclean stop leaves behind the last frame are truncated away
// and counted in the stats; corruption anywhere else,
// a missing segment included, aborts with an error matching
// ErrCorrupt, and a directory holding a compaction snapshot with one
// matching ErrSnapshotFound. onRecord may
// be nil if the caller keeps no state; its error aborts the open.
func Open(dir string, o Options, onRecord func(rec []byte) error) (*Store, RecoveryStats, error) {
	var stats RecoveryStats
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Interval <= 0 {
		o.Interval = defaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if err := removeTmp(dir); err != nil {
		return nil, stats, err
	}
	segs, err := scanDir(dir)
	if err != nil {
		return nil, stats, err
	}
	// Rotation adds segments one at a time from 1 and nothing deletes
	// one, so a gap in the numbering is lost history, refused rather
	// than replayed around.
	for i, idx := range segs {
		if want := uint64(i + 1); idx != want {
			return nil, stats, &CorruptError{Segment: segName(want), Reason: "segment missing"}
		}
	}

	// Rebuild the logical frame cursor as the segments replay: each
	// valid record advances the cursor and folds its payload into the
	// stream digest, and every segment's frame index records where it
	// starts in the stream and where each of its frames ends, so
	// ReadFrom can seek a cursor to a file position.
	var digest uint32
	frameIndex := make([]liveSeg, 0, len(segs)+1)
	for i, idx := range segs {
		name := segName(idx)
		last := i == len(segs)-1
		seg := liveSeg{idx: idx, first: uint64(stats.Records)}
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, stats, fmt.Errorf("store: reading segment %s: %w", name, err)
		}
		records, good, err := scanFrames(buf, name, last)
		if err != nil {
			return nil, stats, err
		}
		if torn := int64(len(buf)) - good; torn > 0 {
			if err := os.Truncate(filepath.Join(dir, name), good); err != nil {
				return nil, stats, fmt.Errorf("store: truncating torn tail of %s: %w", name, err)
			}
			stats.TruncatedBytes += torn
		}
		stats.Segments++
		seg.ends = make([]int64, 0, len(records))
		end := int64(0)
		for _, rec := range records {
			end += frameHeaderSize + int64(len(rec))
			seg.ends = append(seg.ends, end)
			stats.Records++
			digest = crc32.Update(digest, castagnoli, rec)
			if onRecord != nil {
				if err := onRecord(rec); err != nil {
					return nil, stats, fmt.Errorf("store: replaying %s: %w", name, err)
				}
			}
		}
		frameIndex = append(frameIndex, seg)
	}

	s := &Store{
		dir:      dir,
		policy:   o.Policy,
		interval: o.Interval,
		segBytes: o.SegmentBytes,
		hooks:    o.Hooks,
		faults:   o.Faults,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.settled.L = &s.mu
	// Continue the newest segment, or start the first one.
	s.index = 1
	if len(segs) > 0 {
		s.index = segs[len(segs)-1]
	}
	path := filepath.Join(dir, segName(s.index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("store: opening segment: %w", err)
	}
	sz, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, stats, fmt.Errorf("store: seeking segment end: %w", err)
	}
	s.f, s.size, s.alloc = f, sz, sz

	s.frames.Store(uint64(stats.Records))
	s.digest.Store(digest)
	if len(segs) == 0 {
		frameIndex = append(frameIndex, liveSeg{idx: s.index})
	}
	s.segs = frameIndex
	s.ring = make([]digestPoint, digestRingSize)
	s.pushDigestLocked()
	epoch, err := readEpoch(dir)
	if err != nil {
		f.Close()
		return nil, stats, err
	}
	s.epoch.Store(epoch)

	if s.policy == FsyncInterval {
		go s.syncLoop()
	} else {
		close(s.done)
	}
	return s, stats, nil
}

// removeTmp deletes the .tmp files an epoch update (or an older
// version's snapshot write) leaves behind when it crashes before its
// atomic rename. Only Open may do this: on a live store SetEpoch may be
// writing one.
func removeTmp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// scanDir lists segment indices, sorted ascending. A compaction
// snapshot in dir is refused with ErrSnapshotFound.
func scanDir(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
			if err == nil {
				segs = append(segs, idx)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			return nil, fmt.Errorf("%w: %s", ErrSnapshotFound, filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func segName(idx uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Healthy reports nil while the store can accept appends. After an
// unrepairable write-path failure (or Close) it returns the cause;
// /healthz surfaces it.
func (s *Store) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil {
		return s.failErr
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// FsyncLag reports how long the oldest unsynced append has been
// waiting for durability — 0 when every record written is on disk.
// Under FsyncAlways it is the age of the oldest append still waiting
// for its fsync (none of them is acknowledged yet), so a stuck disk
// shows here; under FsyncInterval it normally stays below the sync
// interval, and a growing lag means the background syncer is stuck or
// failing. Under FsyncNever it is always 0: that policy promises no
// sync, so no append is ever late for one.
func (s *Store) FsyncLag() time.Duration {
	if s.policy == FsyncNever {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	since := s.dirtySince
	if len(s.queue) > 0 {
		since = s.queue[0].began
	}
	if since.IsZero() {
		return 0
	}
	return time.Since(since)
}

// fail latches the store into the failed state: every later Append
// and Flush reports the original cause.
func (s *Store) fail(err error) {
	if s.failErr == nil {
		s.failErr = err
	}
}

// Append journals records, in order, with one write and (under
// FsyncAlways) one fsync. Under FsyncAlways they are durable when
// Append returns; under the other policies they are durable after the
// next background sync, rotation or Close.
//
// The frames are written under the store lock. Under FsyncAlways the
// fsync runs outside it, so concurrent appends overlap their fsyncs,
// and appends commit — get indexed, counted in Frames() and folded into
// StreamDigest(), and return — in write order, each once its own fsync
// succeeded and every append written before it committed. A failed
// fsync fails every append not yet committed, its own included, and
// the log is repaired: truncated back to where the first of them began.
//
// On a clean write failure, or a failed fsync, none of the records
// counts, so a caller that did not acknowledge its client can safely
// fail the operation; the store stays healthy. Only an unrepairable
// file leaves the store failed. Appending no records is a no-op.
func (s *Store) Append(recs ...[]byte) error {
	for _, rec := range recs {
		if len(rec) == 0 {
			return errors.New("store: empty record")
		}
		if len(rec) > maxRecordBytes {
			return fmt.Errorf("store: record of %d bytes exceeds the %d-byte cap", len(rec), maxRecordBytes)
		}
	}
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.sealing || s.repairing {
		s.settled.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	if s.failErr != nil {
		return fmt.Errorf("store: unavailable after earlier failure: %w", s.failErr)
	}
	s.scratch = s.scratch[:0]
	for _, rec := range recs {
		s.scratch = appendFrame(s.scratch, rec)
	}
	frames := s.scratch
	if s.faults != nil && s.faults.Write != nil {
		n, ferr := s.faults.Write(frames)
		if ferr != nil {
			if n <= 0 {
				// Clean injected failure: nothing written, store healthy.
				return fmt.Errorf("store: append: %w", ferr)
			}
			// Torn write: the simulated crash leaves a partial write on
			// disk and takes the store down with it.
			if n > len(frames) {
				n = len(frames)
			}
			s.f.Write(frames[:n])
			s.fail(fmt.Errorf("store: torn write: %w", ferr))
			return s.failErr
		}
	}
	before := s.size
	if err := s.writeFrames(frames); err != nil {
		return err
	}
	// The append that fills the segment seals it: nothing is written
	// behind it, and the segment rotates once it commits.
	seals := s.size >= s.segBytes
	if s.policy == FsyncAlways {
		if seals {
			s.sealing = true
			defer func() {
				s.sealing = false
				s.settled.Broadcast()
			}()
		}
		if err := s.syncAppend(before, recs, start); err != nil {
			return err
		}
	} else {
		s.dirty.Store(true)
		if s.dirtySince.IsZero() {
			s.dirtySince = start
		}
		s.commitLocked(before, recs, start)
	}
	if seals {
		if err := s.rotateLocked(); err != nil {
			s.fail(err)
			return s.failErr
		}
	}
	return nil
}

// syncAppend makes the frames an FsyncAlways append wrote from offset
// start durable, and commits them. It is called and returns with s.mu
// held, and releases it across the fsync, which runs on a descriptor of
// its own (see takeFD).
//
// Appends settle strictly in write order (settleLocked): one commits
// only after its own fsync succeeded and every append written before it
// committed. Another append's successful fsync is not taken as proof: a
// descriptor opened after an in-flight fsync had already seen a
// writeback error is not told of it, so its success says nothing about
// the frames that error hit.
func (s *Store) syncAppend(start int64, recs [][]byte, began time.Time) error {
	p := &pendingAppend{start: start, recs: recs, began: began}
	s.queue = append(s.queue, p)
	f, err := s.takeFD()
	if err == nil {
		s.mu.Unlock()
		err = s.syncFile(f)
		s.mu.Lock()
		s.fds = append(s.fds, f)
		if err == nil && s.hooks.OnFsync != nil {
			s.hooks.OnFsync()
		}
	}
	p.synced, p.syncErr = true, err
	s.settleLocked()
	for !p.done {
		s.settled.Wait()
	}
	return p.err
}

// settleLocked settles the queue from its head while the head's fsync
// has returned: a success commits it, and a failure fails it and
// everything behind it (repairLocked).
func (s *Store) settleLocked() {
	for len(s.queue) > 0 && s.queue[0].synced {
		p := s.queue[0]
		if p.syncErr != nil {
			s.repairLocked(p.syncErr)
			return
		}
		s.queue = slices.Delete(s.queue, 0, 1)
		s.commitLocked(p.start, p.recs, p.began)
		p.done = true
	}
	s.settled.Broadcast()
}

// repairLocked fails every queued append with the fsync error err,
// including any whose own fsync has succeeded or will: the frames are
// scrubbed together. New appends wait until the in-flight fsyncs have
// returned; then the log is truncated back to where the first failed
// append began, so a sale the buyer was never charged for cannot
// resurface at recovery, and the descriptor pool, whose members may
// have seen the error, is discarded.
func (s *Store) repairLocked(err error) {
	failed := s.queue
	s.queue = nil
	s.repairing = true
	for _, p := range failed {
		for !p.synced {
			s.settled.Wait()
		}
	}
	s.repairing = false
	err = fmt.Errorf("store: fsync: %w", err)
	if terr := s.truncateTo(failed[0].start); terr != nil {
		s.fail(fmt.Errorf("store: repairing after fsync failure: %w", terr))
		err = s.failErr
	}
	s.closeFDs()
	for _, p := range failed {
		p.done, p.err = true, err
	}
	s.settled.Broadcast()
}

// commitLocked commits records whose frames were written from offset
// start of the live segment: it indexes their frames, advances the
// logical frame cursor and folds each payload into the stream digest
// (all after the durability barrier, so a scrubbed frame is never
// counted). The digest ring gets every intermediate cursor, so a
// follower's digest can be audited at any frame it stops at.
func (s *Store) commitLocked(start int64, recs [][]byte, began time.Time) {
	seg := &s.segs[len(s.segs)-1]
	end := start
	for _, rec := range recs {
		end += frameHeaderSize + int64(len(rec))
		seg.ends = append(seg.ends, end)
		s.digest.Store(crc32.Update(s.digest.Load(), castagnoli, rec))
		s.frames.Add(1)
		s.pushDigestLocked()
	}
	if s.hooks.OnAppend != nil {
		el := time.Since(began)
		for range recs {
			s.hooks.OnAppend(el)
		}
	}
}

// takeFD hands out an idle descriptor of the live segment for one
// fsync, opening one when none is idle. Every in-flight fsync runs on
// its own: Linux reports a writeback error once per open file
// description, so two fsyncs sharing one could split an error, one
// reporting it and the other returning success for pages that may not
// be on disk. The pool is discarded on rotation and after a repair.
func (s *Store) takeFD() (*os.File, error) {
	if n := len(s.fds); n > 0 {
		f := s.fds[n-1]
		s.fds = s.fds[:n-1]
		return f, nil
	}
	return os.OpenFile(filepath.Join(s.dir, segName(s.index)), os.O_WRONLY, 0)
}

// closeFDs discards the descriptor pool. Callers hold s.mu with no
// append in its fsync.
func (s *Store) closeFDs() {
	for _, f := range s.fds {
		f.Close()
	}
	s.fds = nil
}

// writeFrames writes framed bytes to the live segment, after extending
// its preallocation when they would pass it. A failed or short write of
// either is repaired by truncating back to the last frame, so the log
// never carries a half frame that a later append would bury mid-log.
func (s *Store) writeFrames(frames []byte) error {
	end := s.size + int64(len(frames))
	err := s.preallocate(end)
	if err == nil {
		var n int
		if n, err = s.f.Write(frames); err == nil && n != len(frames) {
			err = io.ErrShortWrite
		}
	}
	if err != nil {
		if terr := s.truncateTo(s.size); terr != nil {
			s.fail(fmt.Errorf("store: repairing failed write: %w", terr))
			return s.failErr
		}
		return fmt.Errorf("store: append: %w", err)
	}
	s.size = end
	return nil
}

// zeros is the source of preallocate's zero-fill.
var zeros [64 << 10]byte

// preallocate keeps the live segment's file ahead of its frames: when
// frames ending at end would pass the allocated end, it first writes
// zeros from end to the next allocStep boundary, capped at the segment
// size so a sealed segment holds only frames. Appends then overwrite
// allocated blocks of a file whose size does not change, so their sync
// need not persist a new size. Zeros, not a sparse or fallocated
// extension: those leave each block to be allocated, or converted from
// unwritten, at writeback, on the sync the append waits for.
func (s *Store) preallocate(end int64) error {
	if end <= s.alloc {
		return nil
	}
	to := min((end+allocStep-1)/allocStep*allocStep, s.segBytes)
	for off := end; off < to; {
		n, err := s.f.WriteAt(zeros[:min(to-off, int64(len(zeros)))], off)
		if err != nil {
			return err
		}
		off += int64(n)
	}
	s.alloc = max(end, to)
	return nil
}

// truncateTo cuts the live segment back to sz, dropping its
// preallocation, and repositions the write offset there.
func (s *Store) truncateTo(sz int64) error {
	if err := s.f.Truncate(sz); err != nil {
		return err
	}
	if _, err := s.f.Seek(sz, io.SeekStart); err != nil {
		return err
	}
	s.size, s.alloc = sz, sz
	return nil
}

// syncFile fsyncs f, consulting the fault hook first.
func (s *Store) syncFile(f *os.File) error {
	if s.faults != nil && s.faults.Sync != nil {
		if err := s.faults.Sync(); err != nil {
			return err
		}
	}
	return f.Sync()
}

// syncLocked fsyncs the live segment for Flush, Close, rotation and the
// background syncer. Under FsyncAlways it uses a pooled descriptor, as
// the appends do: the write descriptor is never fsynced there, so it
// cannot report again an error an append's fsync reported and the
// store repaired.
func (s *Store) syncLocked() error {
	f := s.f
	if s.policy == FsyncAlways {
		var err error
		if f, err = s.takeFD(); err != nil {
			return err
		}
		defer func() { s.fds = append(s.fds, f) }()
	}
	if err := s.syncFile(f); err != nil {
		return err
	}
	s.dirtySince = time.Time{}
	if s.hooks.OnFsync != nil {
		s.hooks.OnFsync()
	}
	return nil
}

// syncLoop is the FsyncInterval background syncer. A sync failure here
// fails the store: the affected appends were already acknowledged, so
// unlike the FsyncAlways path there is no one operation to fail
// instead.
func (s *Store) syncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		if !s.dirty.Swap(false) {
			continue
		}
		s.mu.Lock()
		if !s.closed && s.failErr == nil {
			if err := s.syncLocked(); err != nil {
				s.fail(fmt.Errorf("store: background fsync: %w", err))
			}
		}
		s.mu.Unlock()
	}
}

// rotateLocked seals the live segment (final sync + close) and starts
// the next one. Under FsyncAlways the append that filled the segment
// has fsynced it, after every append written before it committed, so
// the segment is durable already and no fsync is in flight.
func (s *Store) rotateLocked() error {
	if s.policy != FsyncAlways {
		if err := s.syncLocked(); err != nil {
			return fmt.Errorf("store: syncing segment before rotation: %w", err)
		}
	}
	s.closeFDs()
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: closing rotated segment: %w", err)
	}
	s.index++
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.index)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment %d: %w", s.index, err)
	}
	s.f, s.size, s.alloc = f, 0, 0
	s.dirty.Store(false)
	s.segs = append(s.segs, liveSeg{idx: s.index, first: s.frames.Load()})
	return s.syncDir()
}

// syncDir fsyncs the directory so renames and newly created segments
// survive a crash of the directory metadata itself.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Flush forces outstanding appends to disk regardless of policy — the
// drain path calls it before the process exits.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failErr != nil {
		return fmt.Errorf("store: unavailable after earlier failure: %w", s.failErr)
	}
	s.dirty.Store(false)
	return s.syncLocked()
}

// Close stops the background syncer, waits for appends in flight to
// settle, truncates the live segment back to its last frame, flushes,
// and closes it. Further operations return ErrClosed. A failed store is
// left as the failure left it, for recovery to cut.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done

	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 || s.sealing || s.repairing {
		s.settled.Wait()
	}
	var errs []error
	if s.failErr == nil {
		if s.alloc > s.size {
			if err := s.truncateTo(s.size); err != nil {
				errs = append(errs, fmt.Errorf("store: cutting preallocation: %w", err))
			}
		}
		if err := s.syncLocked(); err != nil {
			errs = append(errs, fmt.Errorf("store: final fsync: %w", err))
		}
	}
	s.closeFDs()
	if err := s.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store: closing segment: %w", err))
	}
	return errors.Join(errs...)
}
