package store

import (
	"bytes"
	"fmt"
	"testing"
)

func TestFramesAndDigestAdvance(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil)
	if s.Frames() != 0 || s.StreamDigest() != 0 {
		t.Fatalf("fresh store frames=%d digest=%08x, want zeros", s.Frames(), s.StreamDigest())
	}
	appendAll(t, s, "alpha", "beta", "gamma")
	if s.Frames() != 3 {
		t.Fatalf("frames = %d, want 3", s.Frames())
	}
	digest := s.StreamDigest()
	if digest == 0 {
		t.Fatal("digest still zero after appends")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the cursor and chained digest are rebuilt from the log.
	s2, _ := open(t, dir, Options{}, nil)
	defer s2.Close()
	if s2.Frames() != 3 || s2.StreamDigest() != digest {
		t.Fatalf("reopened frames=%d digest=%08x, want 3/%08x", s2.Frames(), s2.StreamDigest(), digest)
	}
}

func TestDigestAtHistory(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{}, nil)
	defer s.Close()
	if d, ok := s.DigestAt(0); !ok || d != 0 {
		t.Fatalf("DigestAt(0) = %08x,%v, want 0,true", d, ok)
	}
	var want []uint32
	for i := 0; i < 5; i++ {
		appendAll(t, s, fmt.Sprintf("rec-%d", i))
		want = append(want, s.StreamDigest())
	}
	for i, w := range want {
		got, ok := s.DigestAt(uint64(i + 1))
		if !ok || got != w {
			t.Fatalf("DigestAt(%d) = %08x,%v, want %08x,true", i+1, got, ok, w)
		}
	}
	if _, ok := s.DigestAt(99); ok {
		t.Fatal("DigestAt past the head reported an observation")
	}
}

func TestReadFromTailsAcrossRotation(t *testing.T) {
	// Tiny segments force rotation every record or two.
	s, _ := open(t, t.TempDir(), Options{SegmentBytes: 32}, nil)
	defer s.Close()
	var want []string
	for i := 0; i < 9; i++ {
		rec := fmt.Sprintf("record-%02d", i)
		want = append(want, rec)
		appendAll(t, s, rec)
	}

	// Full scan from zero.
	recs, next, err := s.ReadFrom(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if next != 9 || len(recs) != 9 {
		t.Fatalf("ReadFrom(0) = %d recs next %d, want 9/9", len(recs), next)
	}
	for i, rec := range recs {
		if string(rec) != want[i] {
			t.Fatalf("frame %d = %q, want %q", i, rec, want[i])
		}
	}

	// Mid-stream cursor lands on the right suffix.
	recs, next, err = s.ReadFrom(4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if next != 9 || len(recs) != 5 || string(recs[0]) != want[4] {
		t.Fatalf("ReadFrom(4) = %d recs next %d first %q", len(recs), next, recs[0])
	}

	// maxBytes chunks the batch but always makes progress.
	recs, next, err = s.ReadFrom(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || next != 1 {
		t.Fatalf("ReadFrom(0, 1 byte) = %d recs next %d, want 1/1", len(recs), next)
	}

	// Caught up: empty batch, cursor unchanged.
	recs, next, err = s.ReadFrom(9, 1<<20)
	if err != nil || len(recs) != 0 || next != 9 {
		t.Fatalf("ReadFrom(head) = %d recs next %d err %v", len(recs), next, err)
	}
}

func TestEpochPersistsAndRefusesRegression(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil)
	if s.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d, want 0", s.Epoch())
	}
	if err := s.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetEpoch(3); err != nil {
		t.Fatalf("idempotent SetEpoch: %v", err)
	}
	if err := s.SetEpoch(2); err == nil {
		t.Fatal("SetEpoch accepted a regression")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := open(t, dir, Options{}, nil)
	defer s2.Close()
	if s2.Epoch() != 3 {
		t.Fatalf("reopened epoch = %d, want 3 (fence must survive restart)", s2.Epoch())
	}
}

func TestEncodeDecodeFramesRoundTrip(t *testing.T) {
	records := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	wire := EncodeFrames(nil, records)
	got, err := DecodeFrames(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], records[i])
		}
	}

	// A flipped payload byte and trailing garbage are both rejected.
	bad := append([]byte(nil), wire...)
	bad[len(bad)-1] ^= 1
	if _, err := DecodeFrames(bad); err == nil {
		t.Fatal("DecodeFrames accepted a corrupt payload")
	}
	if _, err := DecodeFrames(append(wire, 0x7)); err == nil {
		t.Fatal("DecodeFrames accepted trailing bytes")
	}
}
