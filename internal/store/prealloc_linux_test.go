package store

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedZeroFillFailsOnlyItsAppend: a zero-fill that fails, here
// with EFBIG under a file size limit below allocStep, fails only its
// append, as a failed frame write does: the segment is cut back to its
// last frame, nothing is indexed, and the store stays healthy.
func TestFailedZeroFillFailsOnlyItsAppend(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = 4096
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	err := s.Append([]byte("alpha"))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("append whose zero-fill passes the file size limit: %v, want EFBIG", err)
	}
	if err := s.Healthy(); err != nil {
		t.Fatalf("failed zero-fill latched the store: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames() != 0 || fi.Size() != 0 {
		t.Fatalf("failed append left %d frames and a %d-byte segment", s.Frames(), fi.Size())
	}
	appendAll(t, s, "beta")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	s2, stats := open(t, dir, Options{}, &got)
	defer s2.Close()
	if len(got) != 1 || string(got[0]) != "beta" || stats.TruncatedBytes != 0 {
		t.Fatalf("recovered %q (%+v), want only the append after the failure", got, stats)
	}
}
