// Package store is a small, stdlib-only storage engine: an append-only
// write-ahead log of opaque records, CRC32C-framed and length-prefixed,
// with segment rotation, snapshot+compaction, a configurable fsync
// policy, and a recovery reader that distinguishes the torn tail a
// crash leaves behind (truncated, tolerated) from corruption in the
// body of the log (a typed error, never silently dropped).
//
// The engine knows nothing about what it stores. Callers append
// serialized records and rebuild their state at Open time from the
// latest snapshot plus every record appended after it. internal/market
// journals its transaction ledger and idempotency replays through it;
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
	// FsyncNever leaves syncing to the OS (plus rotation, snapshot and
	// Close, which always sync): fastest, weakest.
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
// metrics package. Nil fields are skipped. Callbacks run inside the
// append lock: keep them O(1) (atomic counter bumps).
type Hooks struct {
	// OnAppend fires once per record after each successful Append,
	// with the latency of the call that committed it.
	OnAppend func(d time.Duration)
	// OnFsync fires after each successful fsync of the live segment.
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
)

// RecoveryStats summarizes what Open rebuilt.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a compaction snapshot was read.
	SnapshotLoaded bool
	// Records is the number of WAL records replayed (after the
	// snapshot, if any).
	Records int
	// Segments is the number of WAL segments scanned.
	Segments int
	// TruncatedBytes is the size of the torn tail cut from the final
	// segment (0 for a clean log).
	TruncatedBytes int64
}

// Store is an append-only record log in a directory. All methods are
// safe for concurrent use; appends are serialized internally (they
// target one file), so the caller's natural concurrency contends only
// here and not on any reader path.
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
	size    int64    // live segment size
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

	// Replication bookkeeping (see replicate.go). frames is the logical
	// record cursor: how many records the full stream holds (snapshot
	// base + everything appended since), identical across replicas
	// because every node appends the same record sequence. digest chains
	// a CRC32C over every payload in stream order; epoch is the
	// persisted leader-fencing epoch. base, segs and the digest ring are
	// guarded by mu.
	frames   atomic.Uint64
	digest   atomic.Uint32
	epoch    atomic.Uint64
	base     uint64        // frames covered by the newest snapshot
	segs     []liveSeg     // frame index of the live segments, oldest first; the last is being appended to
	ring     []digestPoint // recent (frames, digest) pairs for divergence audits
	ringHead int
}

// liveSeg is the frame index of one live segment: the global frame
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
// persisted state: the newest snapshot, if one exists, is streamed to
// onSnapshot, then every record appended after it is handed to
// onRecord in append order. A torn final frame — the signature of a
// crash mid-append — is truncated away and counted in the stats;
// corruption anywhere else aborts with an error matching ErrCorrupt.
// Either callback may be nil if the caller keeps no such state; a
// callback error aborts the open.
func Open(dir string, o Options, onSnapshot func(io.Reader) error, onRecord func(rec []byte) error) (*Store, RecoveryStats, error) {
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
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, stats, err
	}

	// Recover: newest snapshot first, then every segment at or past its
	// index. Segments older than the snapshot are compacted leftovers.
	first := uint64(1)
	var hdr snapHeader
	if len(snaps) > 0 {
		snapIdx := snaps[len(snaps)-1]
		h, err := loadSnapshot(filepath.Join(dir, snapName(snapIdx)), onSnapshot)
		if err != nil {
			return nil, stats, err
		}
		hdr = h
		stats.SnapshotLoaded = true
		first = snapIdx
	}
	live := segs
	for len(live) > 0 && live[0] < first {
		live = live[1:]
	}
	// Rebuild the logical frame cursor as the segments replay: the
	// snapshot header anchors the base, each valid record advances the
	// cursor and folds its payload into the stream digest, and every
	// segment's frame index records where it starts in the stream and
	// where each of its frames ends, so ReadFrom can seek a cursor to a
	// file position.
	digest := hdr.Digest
	frameIndex := make([]liveSeg, 0, len(live)+1)
	for i, idx := range live {
		name := segName(idx)
		last := i == len(live)-1
		seg := liveSeg{idx: idx, first: hdr.FramesBefore + uint64(stats.Records)}
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
	// Continue the newest live segment, or start a fresh one at the
	// snapshot boundary.
	s.index = first
	if len(live) > 0 {
		s.index = live[len(live)-1]
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
	s.f, s.size = f, sz
	s.removeObsolete(segs, snaps, first)

	s.base = hdr.FramesBefore
	s.frames.Store(hdr.FramesBefore + uint64(stats.Records))
	s.digest.Store(digest)
	if len(live) == 0 {
		frameIndex = append(frameIndex, liveSeg{idx: s.index, first: s.frames.Load()})
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

// removeTmp deletes the .tmp files a snapshot or epoch update leaves
// behind when it crashes before its atomic rename. Only Open may do
// this: on a live store, Snapshot, InstallSnapshot or SetEpoch may be
// writing one while a reader lists the directory.
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

// scanDir lists segment and snapshot indices, each sorted ascending.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			if idx, err := parseIndex(name, segPrefix, segSuffix); err == nil {
				segs = append(segs, idx)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			if idx, err := parseIndex(name, snapPrefix, snapSuffix); err == nil {
				snaps = append(snaps, idx)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

func segName(idx uint64) string  { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }
func snapName(idx uint64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, idx, snapSuffix) }

func parseIndex(name, prefix, suffix string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
}

// loadSnapshot reads a snapshot file: the framed snapHeader first (see
// replicate.go), then the caller payload streamed to onSnapshot.
func loadSnapshot(path string, onSnapshot func(io.Reader) error) (snapHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapHeader{}, fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer f.Close()
	hdr, err := readSnapHeader(f, filepath.Base(path))
	if err != nil {
		return snapHeader{}, err
	}
	if onSnapshot != nil {
		if err := onSnapshot(f); err != nil {
			return snapHeader{}, fmt.Errorf("store: loading snapshot %s: %w", filepath.Base(path), err)
		}
	}
	return hdr, nil
}

// removeObsolete deletes segments and snapshots made redundant by the
// snapshot at keep. Best-effort: leftovers are retried at next open.
func (s *Store) removeObsolete(segs, snaps []uint64, keep uint64) {
	for _, idx := range segs {
		if idx < keep {
			os.Remove(filepath.Join(s.dir, segName(idx)))
		}
	}
	for _, idx := range snaps {
		if idx < keep {
			os.Remove(filepath.Join(s.dir, snapName(idx)))
		}
	}
}

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
// waiting for durability — 0 when every acknowledged record is on
// disk. Under FsyncAlways it is always 0 (appends return durable);
// under FsyncInterval it normally stays below the sync interval, and a
// growing lag means the background syncer is stuck or failing.
func (s *Store) FsyncLag() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirtySince.IsZero() {
		return 0
	}
	return time.Since(s.dirtySince)
}

// fail latches the store into the failed state: every later Append,
// Flush and Snapshot reports the original cause.
func (s *Store) fail(err error) {
	if s.failErr == nil {
		s.failErr = err
	}
}

// Append journals records, in order, with one write and (under
// FsyncAlways) one fsync. Under FsyncAlways they are durable when
// Append returns; under the other policies they are durable after the
// next background sync, rotation, snapshot or Close. On a clean write
// or fsync failure the log is repaired (truncated back to its size
// before the call) and the error returned — none of the records
// counts, so a caller that did not acknowledge its client can safely
// fail the operation. Only an unrepairable file leaves the store
// failed. Appending no records is a no-op.
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
	if s.policy == FsyncAlways {
		if err := s.syncLocked(); err != nil {
			// The frames' durability is unknown; scrub them so a sale the
			// buyer was never charged for cannot resurface at recovery.
			if terr := s.truncateTo(before); terr != nil {
				s.fail(fmt.Errorf("store: repairing after fsync failure: %w", terr))
				return s.failErr
			}
			return fmt.Errorf("store: fsync: %w", err)
		}
	} else {
		s.dirty.Store(true)
		if s.dirtySince.IsZero() {
			s.dirtySince = start
		}
	}
	// The records are committed: index their frames, advance the logical
	// frame cursor and fold each payload into the stream digest (all
	// after the durability barrier, so a scrubbed frame is never
	// counted). The digest ring gets every intermediate cursor, so a
	// follower's digest can be audited at any frame it stops at.
	seg := &s.segs[len(s.segs)-1]
	end := before
	for _, rec := range recs {
		end += frameHeaderSize + int64(len(rec))
		seg.ends = append(seg.ends, end)
		s.digest.Store(crc32.Update(s.digest.Load(), castagnoli, rec))
		s.frames.Add(1)
		s.pushDigestLocked()
	}
	if s.hooks.OnAppend != nil {
		el := time.Since(start)
		for range recs {
			s.hooks.OnAppend(el)
		}
	}
	if s.size >= s.segBytes {
		if err := s.rotateLocked(); err != nil {
			s.fail(err)
			return s.failErr
		}
	}
	return nil
}

// writeFrames writes framed bytes to the live segment, repairing
// (truncating back) on a short write so the log never carries a half
// frame that a later append would bury mid-log.
func (s *Store) writeFrames(frames []byte) error {
	n, err := s.f.Write(frames)
	if err != nil || n != len(frames) {
		if terr := s.truncateTo(s.size); terr != nil {
			s.fail(fmt.Errorf("store: repairing short write: %w", terr))
			return s.failErr
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		return fmt.Errorf("store: append: %w", err)
	}
	s.size += int64(n)
	return nil
}

// truncateTo cuts the live segment back to sz and repositions the
// write offset there.
func (s *Store) truncateTo(sz int64) error {
	if err := s.f.Truncate(sz); err != nil {
		return err
	}
	if _, err := s.f.Seek(sz, io.SeekStart); err != nil {
		return err
	}
	s.size = sz
	return nil
}

// syncLocked fsyncs the live segment (consulting the fault hook).
func (s *Store) syncLocked() error {
	if s.faults != nil && s.faults.Sync != nil {
		if err := s.faults.Sync(); err != nil {
			return err
		}
	}
	if err := s.f.Sync(); err != nil {
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
// the next one.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return fmt.Errorf("store: syncing segment before rotation: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: closing rotated segment: %w", err)
	}
	s.index++
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.index)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment %d: %w", s.index, err)
	}
	s.f, s.size = f, 0
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

// Snapshot compacts the log: write streams the caller's full current
// state into a snapshot that atomically replaces every record appended
// so far, and the segments it covers are deleted. Appends are blocked
// for the duration; recovery after a crash at any point sees either
// the old log or the new snapshot, never a mix.
func (s *Store) Snapshot(write func(w io.Writer) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failErr != nil {
		return fmt.Errorf("store: unavailable after earlier failure: %w", s.failErr)
	}
	// Seal the live segment and open the post-snapshot one, so the
	// snapshot boundary falls exactly between segments.
	if err := s.rotateLocked(); err != nil {
		s.fail(err)
		return s.failErr
	}
	boundary := s.index
	tmp := filepath.Join(s.dir, snapName(boundary)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	// The header rides inside the snapshot file, so the frame cursor it
	// anchors is atomic with the rename that publishes the state.
	hdr := snapHeader{FramesBefore: s.frames.Load(), Digest: s.digest.Load()}
	if err := writeSnapHeader(f, hdr); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName(boundary))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("store: syncing directory after snapshot: %w", err)
	}
	// The snapshot now owns everything before the boundary; the segment
	// rotateLocked just opened is the only live one left.
	s.base = hdr.FramesBefore
	s.segs = []liveSeg{s.segs[len(s.segs)-1]}
	segs, snaps, err := scanDir(s.dir)
	if err == nil {
		s.removeObsolete(segs, snaps, boundary)
	}
	return nil
}

// Close stops the background syncer, flushes outstanding appends, and
// closes the live segment. Further operations return ErrClosed.
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
	var errs []error
	if s.failErr == nil {
		if err := s.syncLocked(); err != nil {
			errs = append(errs, fmt.Errorf("store: final fsync: %w", err))
		}
	}
	if err := s.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store: closing segment: %w", err))
	}
	return errors.Join(errs...)
}
