package store

// Replication support. The store exposes its log as a logical record
// stream: frame i is the i-th record ever appended (0-based), counted
// from the beginning of time, not from the current segment layout.
// Because a replicated follower appends exactly the records its leader
// ships, the cursor is node-independent — leader and follower agree on
// frame numbers even though their segment files rotate at different
// byte offsets. Three pieces anchor the stream across compaction:
//
//   - every snapshot file starts with a store-framed snapHeader naming
//     how many frames the snapshot replaces (FramesBefore) and the
//     chained CRC32C of their payloads (Digest), atomically with the
//     rename that publishes the snapshot;
//   - ReadFrom serves records from a frame cursor, returning
//     ErrCompacted when the cursor predates the newest snapshot (the
//     shipper then bootstraps the follower from LatestSnapshot);
//   - a persisted epoch (SetEpoch) fences deposed leaders: replication
//     messages carry it, and a follower rejects frames stamped with an
//     epoch older than the one it has durably adopted.
//
// The stream digest doubles as the divergence audit: two replicas at
// the same frame cursor must report the same digest, and the leader
// keeps a ring of recent (frames, digest) pairs so it can compare a
// lagging follower's digest against its own history.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrCompacted reports a frame cursor that points below the newest
// snapshot boundary: the records were compacted away and the reader
// must re-bootstrap from the snapshot instead of tailing the log.
var ErrCompacted = errors.New("store: frames compacted into a snapshot")

// ErrNoSnapshot is returned by LatestSnapshot when the store has never
// compacted.
var ErrNoSnapshot = errors.New("store: no snapshot")

// snapHeader is the framed metadata record at the front of every
// snapshot file.
type snapHeader struct {
	// FramesBefore is the logical frame cursor at the snapshot
	// boundary: the snapshot replaces frames [0, FramesBefore).
	FramesBefore uint64 `json:"frames_before"`
	// Digest is the chained CRC32C over the payloads of those frames.
	Digest uint32 `json:"digest"`
}

// maxSnapHeaderBytes bounds the header frame so a corrupt length field
// cannot demand an absurd allocation.
const maxSnapHeaderBytes = 4096

// digestRingSize is how many recent (frames, digest) pairs the store
// retains for divergence audits against lagging followers.
const digestRingSize = 4096

// digestPoint is one historical digest observation.
type digestPoint struct {
	frames uint64
	digest uint32
}

// writeSnapHeader frames hdr onto w.
func writeSnapHeader(w io.Writer, hdr snapHeader) error {
	payload, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot header: %w", err)
	}
	if _, err := w.Write(appendFrame(nil, payload)); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	return nil
}

// readSnapHeader consumes the framed header from r, leaving r
// positioned at the caller payload.
func readSnapHeader(r io.Reader, name string) (snapHeader, error) {
	var raw [frameHeaderSize]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return snapHeader{}, &CorruptError{Segment: name, Reason: "truncated snapshot header"}
	}
	length := binary.LittleEndian.Uint32(raw[0:4])
	sum := binary.LittleEndian.Uint32(raw[4:8])
	if length == 0 || length > maxSnapHeaderBytes {
		return snapHeader{}, &CorruptError{Segment: name, Reason: fmt.Sprintf("implausible snapshot header length %d", length)}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return snapHeader{}, &CorruptError{Segment: name, Reason: "truncated snapshot header payload"}
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return snapHeader{}, &CorruptError{Segment: name, Reason: "snapshot header checksum mismatch"}
	}
	var hdr snapHeader
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return snapHeader{}, &CorruptError{Segment: name, Reason: "undecodable snapshot header"}
	}
	return hdr, nil
}

// Frames reports the logical length of the record stream: the number
// of records the full history holds (snapshot base + appended). Frame
// cursors index into [0, Frames()).
func (s *Store) Frames() uint64 { return s.frames.Load() }

// StreamDigest reports the chained CRC32C over every record payload in
// stream order. Replicas at the same Frames() must agree on it.
func (s *Store) StreamDigest() uint32 { return s.digest.Load() }

// pushDigestLocked files the current (frames, digest) pair into the
// audit ring. Callers hold s.mu.
func (s *Store) pushDigestLocked() {
	if len(s.ring) == 0 {
		return
	}
	s.ring[s.ringHead] = digestPoint{frames: s.frames.Load(), digest: s.digest.Load()}
	s.ringHead = (s.ringHead + 1) % len(s.ring)
}

// DigestAt looks up the stream digest this store observed when its
// cursor was exactly frames. It reports false when the observation has
// aged out of the ring (or never happened) — the auditor then skips
// the comparison rather than inventing a verdict.
func (s *Store) DigestAt(frames uint64) (uint32, bool) {
	if frames == 0 {
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.ring {
		if p.frames == frames {
			return p.digest, true
		}
	}
	return 0, false
}

// ReadFrom returns records starting at the given frame cursor, up to
// roughly maxBytes of payload (at least one record when any is
// available), along with the cursor just past the last record
// returned. An empty batch with next == cursor means the reader is
// caught up. A cursor below the newest snapshot boundary returns
// ErrCompacted: those records no longer exist as frames and the reader
// must bootstrap from LatestSnapshot instead. Reads do not block
// appends: the frame index pins down, under the store lock, the exact
// byte ranges of the frames to return, and only those ranges are read
// and CRC-checked after it is released, so a call costs what it ships,
// not what the journal holds.
func (s *Store) ReadFrom(cursor uint64, maxBytes int) ([][]byte, uint64, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, cursor, ErrClosed
	}
	base, head := s.base, s.frames.Load()
	if cursor < base {
		s.mu.Unlock()
		return nil, cursor, fmt.Errorf("%w: cursor %d predates snapshot base %d", ErrCompacted, cursor, base)
	}
	if cursor >= head {
		s.mu.Unlock()
		return nil, cursor, nil
	}
	ranges, count := s.planReadLocked(cursor, maxBytes)
	s.mu.Unlock()

	out := make([][]byte, 0, count)
	for _, r := range ranges {
		recs, err := s.readRange(r)
		if err != nil {
			return nil, cursor, err
		}
		out = append(out, recs...)
	}
	return out, cursor + uint64(len(out)), nil
}

// frameRange is a run of consecutive committed frames within one
// segment: bytes [off, end) of it, holding frames frames.
type frameRange struct {
	idx      uint64
	off, end int64
	frames   int
}

// planReadLocked walks the frame index from cursor (which must be in
// [base, head)) and returns the byte ranges of the frames one ReadFrom
// call returns: consecutive frames, possibly spanning segments, until
// their payloads reach maxBytes (the frame that reaches it included)
// or the index ends. count is the total number of frames. Callers
// hold s.mu.
func (s *Store) planReadLocked(cursor uint64, maxBytes int) (ranges []frameRange, count int) {
	// The newest segment whose first frame is at or before the cursor
	// (one exists: cursor >= base, the first live segment's first
	// frame); consecutive segments carry consecutive frame ranges.
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].first > cursor }) - 1
	for ; i < len(s.segs) && maxBytes > 0; i++ {
		seg := &s.segs[i]
		k := int(cursor + uint64(count) - seg.first)
		if k >= len(seg.ends) {
			continue // the cursor sits at this segment's end
		}
		r := frameRange{idx: seg.idx}
		if k > 0 {
			r.off = seg.ends[k-1]
		}
		r.end = r.off
		for ; k < len(seg.ends) && maxBytes > 0; k++ {
			maxBytes -= int(seg.ends[k] - r.end - frameHeaderSize)
			r.end = seg.ends[k]
			r.frames++
		}
		ranges = append(ranges, r)
		count += r.frames
	}
	return ranges, count
}

// readRange reads one planned range with a single positioned read and
// strictly CRC-checks every frame in it. A segment deleted since the
// plan was made (a concurrent compaction) reports ErrCompacted; bytes
// that do not hold exactly the frames the index promised are a
// *CorruptError.
func (s *Store) readRange(r frameRange) ([][]byte, error) {
	name := segName(r.idx)
	f, err := os.Open(filepath.Join(s.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		// The caller falls back to a snapshot bootstrap exactly as for a
		// stale cursor.
		return nil, fmt.Errorf("%w: %v", ErrCompacted, err)
	}
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", name, err)
	}
	defer f.Close()
	buf := make([]byte, r.end-r.off)
	if _, err := f.ReadAt(buf, r.off); errors.Is(err, io.EOF) {
		return nil, &CorruptError{Segment: name, Offset: r.off, Reason: "segment shorter than its frame index"}
	} else if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", name, err)
	}
	records, _, err := scanFrames(buf, name, false)
	var ce *CorruptError
	if errors.As(err, &ce) {
		ce.Offset += r.off
		return nil, ce
	}
	if err != nil {
		return nil, err
	}
	if len(records) != r.frames {
		return nil, &CorruptError{Segment: name, Offset: r.off,
			Reason: fmt.Sprintf("frame index promised %d frames, found %d", r.frames, len(records))}
	}
	return records, nil
}

// LatestSnapshot returns the newest snapshot's frame boundary, stream
// digest, and raw caller payload — the bootstrap a follower installs
// when its cursor was compacted away. ErrNoSnapshot when the store has
// never compacted.
func (s *Store) LatestSnapshot() (framesBefore uint64, digest uint32, payload []byte, err error) {
	_, snaps, err := scanDir(s.dir)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(snaps) == 0 {
		return 0, 0, nil, ErrNoSnapshot
	}
	path := filepath.Join(s.dir, snapName(snaps[len(snaps)-1]))
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer f.Close()
	hdr, err := readSnapHeader(f, filepath.Base(path))
	if err != nil {
		return 0, 0, nil, err
	}
	payload, err = io.ReadAll(f)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: reading snapshot payload: %w", err)
	}
	return hdr.FramesBefore, hdr.Digest, payload, nil
}

// InstallSnapshot adopts a snapshot received from a leader: the raw
// payload is persisted as this store's own newest snapshot with the
// leader's frame boundary and digest in its header, and the local
// cursor jumps to framesBefore. Everything the local log held before
// the boundary is released; records appended afterwards continue the
// stream exactly as on the leader. Installing a snapshot that would
// rewind the local cursor is refused — a follower is only ever behind
// the boundary, never past it.
func (s *Store) InstallSnapshot(framesBefore uint64, digest uint32, payload io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failErr != nil {
		return fmt.Errorf("store: unavailable after earlier failure: %w", s.failErr)
	}
	if cur := s.frames.Load(); framesBefore < cur {
		return fmt.Errorf("store: snapshot at frame %d would rewind local cursor %d", framesBefore, cur)
	}
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
	if err := writeSnapHeader(f, snapHeader{FramesBefore: framesBefore, Digest: digest}); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := io.Copy(f, payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot payload: %w", err)
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
	s.base = framesBefore
	s.frames.Store(framesBefore)
	s.digest.Store(digest)
	s.segs = []liveSeg{{idx: boundary, first: framesBefore}}
	s.ring = make([]digestPoint, digestRingSize)
	s.ringHead = 0
	s.pushDigestLocked()
	segs, snaps, err := scanDir(s.dir)
	if err == nil {
		s.removeObsolete(segs, snaps, boundary)
	}
	return nil
}

// epochFile persists the leader-fencing epoch next to the segments.
const epochFile = "epoch"

// readEpoch loads the persisted epoch; a store that never had one is
// at epoch 0.
func readEpoch(dir string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, epochFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading epoch: %w", err)
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: parsing epoch %q: %w", raw, err)
	}
	return e, nil
}

// Epoch reports the durably adopted leader-fencing epoch.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch durably adopts a higher (or equal) epoch via tmp+rename, so
// the fence survives a crash: a deposed leader that restarts cannot
// un-learn that the cluster moved on. Lowering the epoch is refused.
func (s *Store) SetEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if cur := s.epoch.Load(); e < cur {
		return fmt.Errorf("store: epoch %d below adopted epoch %d", e, cur)
	} else if e == cur {
		return nil
	}
	tmp := filepath.Join(s.dir, epochFile+".tmp")
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(e, 10)+"\n"), 0o644); err != nil {
		return fmt.Errorf("store: writing epoch: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, epochFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing epoch: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("store: syncing directory after epoch: %w", err)
	}
	s.epoch.Store(e)
	return nil
}

// EncodeFrames appends the wire encoding of records to dst — the same
// CRC32C framing the on-disk segments use, so a receiver re-verifies
// every payload byte-for-byte on receipt.
func EncodeFrames(dst []byte, records [][]byte) []byte {
	for _, rec := range records {
		dst = appendFrame(dst, rec)
	}
	return dst
}

// DecodeFrames strictly decodes a wire chunk of frames: any bad frame
// is an error (a network transfer has no torn tail to tolerate).
// Returned slices alias buf.
func DecodeFrames(buf []byte) ([][]byte, error) {
	records, good, err := scanFrames(buf, "wire", false)
	if err != nil {
		return nil, err
	}
	if good != int64(len(buf)) {
		return nil, &CorruptError{Segment: "wire", Offset: good, Reason: "trailing bytes after last frame"}
	}
	return records, nil
}
