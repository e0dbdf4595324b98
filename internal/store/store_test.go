package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// open is Open with a collecting callback: records land in *got.
func open(t *testing.T, dir string, o Options, got *[][]byte) (*Store, RecoveryStats) {
	t.Helper()
	s, stats, err := Open(dir, o, func(rec []byte) error {
		if got != nil {
			*got = append(*got, append([]byte(nil), rec...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, stats
}

func appendAll(t *testing.T, s *Store, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	for _, policy := range []Policy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, stats := open(t, dir, Options{Policy: policy}, nil)
			if stats.Records != 0 {
				t.Fatalf("fresh dir recovered state: %+v", stats)
			}
			appendAll(t, s, "alpha", "beta", "gamma")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			var got [][]byte
			s2, stats := open(t, dir, Options{Policy: policy}, &got)
			defer s2.Close()
			if stats.Records != 3 || stats.TruncatedBytes != 0 {
				t.Fatalf("recovery stats %+v, want 3 clean records", stats)
			}
			for i, want := range []string{"alpha", "beta", "gamma"} {
				if string(got[i]) != want {
					t.Fatalf("record %d = %q, want %q", i, got[i], want)
				}
			}
		})
	}
}

func TestAppendRejectsEmptyRecord(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{}, nil)
	defer s.Close()
	if err := s.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{SegmentBytes: 64}, nil)
	for i := 0; i < 20; i++ {
		appendAll(t, s, fmt.Sprintf("record-%02d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}

	var got [][]byte
	s2, stats := open(t, dir, Options{SegmentBytes: 64}, &got)
	defer s2.Close()
	if stats.Records != 20 || stats.Segments != len(segs) {
		t.Fatalf("recovery stats %+v, want 20 records over %d segments", stats, len(segs))
	}
	for i := range got {
		if want := fmt.Sprintf("record-%02d", i); string(got[i]) != want {
			t.Fatalf("record %d = %q, want %q (order lost across segments)", i, got[i], want)
		}
	}
}

// TestOpenRefusesSnapshotDir: a directory holding a compaction
// snapshot, which older versions wrote, is refused with an error that
// names the file, because replaying only the segments after it would
// drop the rows it holds. Leftover .tmp files are still removed, and
// the segments and the snapshot are left as they were.
func TestOpenRefusesSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil)
	appendAll(t, s, "alpha")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snap-00000002.db")
	tmps := []string{filepath.Join(dir, "snap-00000003.db.tmp"), filepath.Join(dir, epochFile+".tmp")}
	for _, p := range append([]string{snap}, tmps...) {
		if err := os.WriteFile(p, []byte("state"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := Open(dir, Options{}, nil)
	if !errors.Is(err, ErrSnapshotFound) || !strings.Contains(err.Error(), snap) {
		t.Fatalf("Open of a directory holding %s: %v, want ErrSnapshotFound naming the file", snap, err)
	}
	for _, p := range tmps {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("leftover %s not removed: %v", p, err)
		}
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("refused snapshot: %v", err)
	}
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	s2, _ := open(t, dir, Options{}, &got)
	defer s2.Close()
	if len(got) != 1 || string(got[0]) != "alpha" {
		t.Fatalf("segment after the refusal holds %q, want the one record", got)
	}
}

// TestOpenRefusesMissingSegment: segments run from 1 without a gap, so
// a journal missing one — the leading segments an older version
// compacted away, say, once its snapshot is removed — is lost history
// and refused as corruption naming the missing segment.
func TestOpenRefusesMissingSegment(t *testing.T) {
	for _, missing := range []uint64{1, 2} {
		dir := t.TempDir()
		s, _ := open(t, dir, Options{SegmentBytes: 32}, nil)
		for i := 0; i < 8; i++ {
			appendAll(t, s, fmt.Sprintf("record-%02d", i))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, segName(missing))); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(dir, Options{}, nil)
		var ce *CorruptError
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Segment != segName(missing) {
			t.Fatalf("Open without %s: %v, want a *CorruptError naming it", segName(missing), err)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil)
	appendAll(t, s, "alpha", "beta", "gamma")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop into the final frame: the crash signature.
	path := filepath.Join(dir, segName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	s2, stats := open(t, dir, Options{}, &got)
	if stats.Records != 2 || stats.TruncatedBytes == 0 {
		t.Fatalf("torn tail not truncated: %+v", stats)
	}
	if string(got[0]) != "alpha" || string(got[1]) != "beta" {
		t.Fatalf("surviving prefix wrong: %q", got)
	}
	// The log is usable again: the truncated record's slot is rewritten.
	appendAll(t, s2, "gamma2")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	s3, stats := open(t, dir, Options{}, &got)
	defer s3.Close()
	if stats.Records != 3 || stats.TruncatedBytes != 0 || string(got[2]) != "gamma2" {
		t.Fatalf("post-truncation append lost: %+v %q", stats, got)
	}
}

func TestMidLogCorruptionTypedError(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil)
	appendAll(t, s, "alpha", "beta", "gamma")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the FIRST frame — valid frames follow, so
	// this cannot be a torn tail.
	path := filepath.Join(dir, segName(1))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[frameHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, Options{}, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption returned %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != 0 || ce.Segment != segName(1) {
		t.Fatalf("corrupt error lacks location: %+v", ce)
	}
}

func TestCorruptionInEarlierSegmentTypedError(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{SegmentBytes: 32}, nil)
	for i := 0; i < 8; i++ {
		appendAll(t, s, fmt.Sprintf("record-%02d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatal("need at least two segments")
	}
	// Truncate the FIRST segment mid-frame: in a non-final segment even
	// a "torn-looking" tail is corruption, because rotation sealed it.
	path := filepath.Join(dir, segName(segs[0]))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{}, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealed-segment damage returned %v, want ErrCorrupt", err)
	}
}

func TestCleanWriteFaultKeepsStoreHealthy(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected")
	failNext := false
	faults := &Faults{Write: func(frame []byte) (int, error) {
		if failNext {
			failNext = false
			return 0, injected
		}
		return len(frame), nil
	}}
	s, _ := open(t, dir, Options{Faults: faults}, nil)
	appendAll(t, s, "one")
	failNext = true
	if err := s.Append([]byte("two")); !errors.Is(err, injected) {
		t.Fatalf("append error %v, want injected", err)
	}
	if err := s.Healthy(); err != nil {
		t.Fatalf("clean write failure latched the store: %v", err)
	}
	appendAll(t, s, "three")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	s2, stats := open(t, dir, Options{}, &got)
	defer s2.Close()
	if stats.Records != 2 || string(got[0]) != "one" || string(got[1]) != "three" {
		t.Fatalf("recovered %q, want the two acknowledged records", got)
	}
}

func TestTornWriteFaultFailsStoreAndRecoveryTruncates(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected crash")
	torn := false
	faults := &Faults{Write: func(frame []byte) (int, error) {
		if torn {
			torn = false
			return len(frame) / 2, injected
		}
		return len(frame), nil
	}}
	s, _ := open(t, dir, Options{Faults: faults}, nil)
	appendAll(t, s, "one", "two")
	torn = true
	if err := s.Append([]byte("three")); !errors.Is(err, injected) {
		t.Fatalf("torn append error %v, want injected", err)
	}
	if err := s.Healthy(); err == nil {
		t.Fatal("torn write left the store healthy")
	}
	if err := s.Append([]byte("four")); err == nil {
		t.Fatal("append accepted after simulated crash")
	}
	// No Close: the process "died". Recovery truncates the tear.
	var got [][]byte
	s2, stats := open(t, dir, Options{}, &got)
	defer s2.Close()
	if stats.Records != 2 || stats.TruncatedBytes == 0 {
		t.Fatalf("recovery stats %+v, want 2 records and a truncated tear", stats)
	}
	if string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("recovered %q", got)
	}
}

func TestFsyncFaultFailsAppendButRepairs(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected fsync")
	fail := false
	faults := &Faults{Sync: func() error {
		if fail {
			fail = false
			return injected
		}
		return nil
	}}
	s, _ := open(t, dir, Options{Policy: FsyncAlways, Faults: faults}, nil)
	appendAll(t, s, "one")
	fail = true
	if err := s.Append([]byte("two")); !errors.Is(err, injected) {
		t.Fatalf("append error %v, want injected fsync", err)
	}
	if err := s.Healthy(); err != nil {
		t.Fatalf("repairable fsync failure latched the store: %v", err)
	}
	appendAll(t, s, "three")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	s2, _ := open(t, dir, Options{}, &got)
	defer s2.Close()
	if len(got) != 2 || string(got[1]) != "three" {
		t.Fatalf("unacknowledged record resurfaced: %q", got)
	}
}

func TestIntervalPolicySyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	synced := make(chan struct{}, 16)
	s, _, err := Open(dir, Options{
		Policy:   FsyncInterval,
		Interval: time.Millisecond,
		Hooks:    Hooks{OnFsync: func() { synced <- struct{}{} }},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "one")
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("background fsync never fired")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHooksCount(t *testing.T) {
	var appends, fsyncs int
	s, _, err := Open(t.TempDir(), Options{
		Policy: FsyncAlways,
		Hooks: Hooks{
			OnAppend: func(time.Duration) { appends++ },
			OnFsync:  func() { fsyncs++ },
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "a", "b", "c")
	if appends != 3 {
		t.Fatalf("OnAppend fired %d times, want 3", appends)
	}
	if fsyncs < 3 {
		t.Fatalf("OnFsync fired %d times, want >= 3 under FsyncAlways", fsyncs)
	}
	// A multi-record append fires OnAppend per record and fsyncs once.
	fsyncs = 0
	if err := s.Append([]byte("d"), []byte("e")); err != nil {
		t.Fatal(err)
	}
	if appends != 5 || fsyncs != 1 {
		t.Fatalf("two-record append: OnAppend total %d, OnFsync %d; want 5 and 1", appends, fsyncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestClosedStoreRefusesOperations(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{}, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close: %v", err)
	}
	if err := s.Healthy(); !errors.Is(err, ErrClosed) {
		t.Fatalf("healthy after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

// TestZeroFilledTailTruncates covers the filesystem crash mode where
// the tail of the file comes back as zeros: a zero length field is an
// implausible frame, so recovery truncates rather than replaying
// garbage records. That holds when a whole frame follows the zeros
// too, the shape overlapping fsyncs can leave at a power failure: an
// unacknowledged append whose bytes never reached the disk, then a
// later one whose bytes did.
func TestZeroFilledTailTruncates(t *testing.T) {
	for name, tail := range map[string][]byte{
		"zeros":            make([]byte, 64),
		"zeros-then-frame": append(make([]byte, frameHeaderSize+len("gamma")), appendFrame(nil, []byte("delta"))...),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := open(t, dir, Options{}, nil)
			appendAll(t, s, "alpha")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segName(1))
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			s2, stats := open(t, dir, Options{}, &got)
			defer s2.Close()
			if stats.Records != 1 || stats.TruncatedBytes != int64(len(tail)) || string(got[0]) != "alpha" {
				t.Fatalf("zero tail not truncated: %+v, recovered %q", stats, got)
			}
		})
	}
}

// TestFrameLengthOverrunAtTailTruncates: a frame whose claimed length
// runs past the end of the final segment is the torn-header crash
// shape.
func TestFrameLengthOverrunAtTailTruncates(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil)
	appendAll(t, s, "alpha")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	s2, stats := open(t, dir, Options{}, &got)
	defer s2.Close()
	if stats.Records != 1 || stats.TruncatedBytes != frameHeaderSize {
		t.Fatalf("overrun header not truncated: %+v", stats)
	}
	if !bytes.Equal(got[0], []byte("alpha")) {
		t.Fatalf("surviving record %q", got[0])
	}
}
