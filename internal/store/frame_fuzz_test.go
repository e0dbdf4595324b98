package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzFrameDecode exercises the WAL frame decoder with arbitrary
// bytes and with structured mutations of well-formed logs. Invariants:
//
//  1. scanFrames never panics and never returns records past `good`.
//  2. A log of valid frames round-trips exactly.
//  3. Truncating a valid log mid-frame recovers the longest valid
//     prefix when last=true (torn tail), and returns ErrCorrupt when
//     last=false (a sealed segment can't have a torn tail).
//  4. Flipping a payload byte in a non-final frame is mid-log
//     corruption: typed error regardless of last.
//  5. Padding a valid or torn log with zeros, as the live segment's
//     preallocation does, changes nothing it recovers when last=true
//     (unless the bytes the tear cut were zeros themselves: then the
//     padding restores them), and returns ErrCorrupt when last=false.
func FuzzFrameDecode(f *testing.F) {
	seed := appendFrame(nil, []byte("alpha"))
	seed = appendFrame(seed, []byte("beta"))
	f.Add(seed, uint16(len(seed)), false)
	f.Add([]byte{}, uint16(0), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(3), true)
	f.Add(bytes.Repeat([]byte{0xFF}, 40), uint16(20), false)
	f.Add(append(append([]byte(nil), seed[:frameHeaderSize+2]...), make([]byte, 24)...), uint16(9), true)

	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, last bool) {
		// Invariant 1: arbitrary input never panics, and the reported
		// good offset always covers exactly the returned records.
		recs, good, err := scanFrames(raw, "fuzz.log", last)
		if good < 0 || good > int64(len(raw)) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(raw))
		}
		reencoded := []byte{}
		for _, r := range recs {
			if len(r) == 0 {
				t.Fatal("decoder produced an empty record")
			}
			reencoded = appendFrame(reencoded, r)
		}
		if !bytes.Equal(reencoded, raw[:good]) {
			t.Fatalf("records do not re-encode to the valid prefix (good=%d, err=%v)", good, err)
		}

		// Build a well-formed log from chunks of the fuzz input.
		var wantRecs [][]byte
		valid := []byte{}
		for i := 0; i < len(raw) && len(wantRecs) < 8; i += 5 {
			end := i + 5
			if end > len(raw) {
				end = len(raw)
			}
			chunk := raw[i:end]
			wantRecs = append(wantRecs, chunk)
			valid = appendFrame(valid, chunk)
		}
		if len(wantRecs) == 0 {
			return
		}

		// Invariant 2: exact round-trip.
		recs, good, err = scanFrames(valid, "fuzz.log", last)
		if err != nil || good != int64(len(valid)) || len(recs) != len(wantRecs) {
			t.Fatalf("round-trip failed: %d/%d records, good=%d/%d, err=%v",
				len(recs), len(wantRecs), good, len(valid), err)
		}
		for i := range recs {
			if !bytes.Equal(recs[i], wantRecs[i]) {
				t.Fatalf("record %d = %q, want %q", i, recs[i], wantRecs[i])
			}
		}

		// Invariant 3: truncation. Choose a cut that lands strictly
		// inside the final frame so the prefix before it stays valid.
		lastStart := int64(len(valid)) - int64(frameHeaderSize+len(wantRecs[len(wantRecs)-1]))
		cutAt := lastStart + int64(cut)%int64(len(valid))
		if cutAt < lastStart || cutAt >= int64(len(valid)) {
			cutAt = lastStart
		}
		torn := valid[:cutAt]
		recs, good, err = scanFrames(torn, "fuzz.log", true)
		if err != nil {
			t.Fatalf("torn tail in last segment returned error %v", err)
		}
		if good != lastStart || len(recs) != len(wantRecs)-1 {
			t.Fatalf("torn tail: good=%d want %d, records %d want %d",
				good, lastStart, len(recs), len(wantRecs)-1)
		}
		if cutAt > lastStart { // a sealed segment with a partial frame is corrupt
			if _, _, err := scanFrames(torn, "fuzz.log", false); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("torn tail in sealed segment returned %v, want ErrCorrupt", err)
			}
		}

		// Invariant 5: zero padding. The pad always runs past the valid
		// log's end, so a sealed segment meets a zero frame header.
		for _, log := range [][]byte{valid, torn} {
			want := log
			if onlyZeros(valid[len(log):]) {
				want = valid
			}
			wantRecs, wantGood, _ := scanFrames(want, "fuzz.log", true)
			padded := append(append([]byte(nil), log...), make([]byte, len(valid)-len(log)+1+int(cut)%64)...)
			recs, good, err := scanFrames(padded, "fuzz.log", true)
			if err != nil || good != wantGood || len(recs) != len(wantRecs) {
				t.Fatalf("%d-byte log padded to %d: %d records, good=%d, err=%v; want %d records, good=%d",
					len(log), len(padded), len(recs), good, err, len(wantRecs), wantGood)
			}
			for i := range recs {
				if !bytes.Equal(recs[i], wantRecs[i]) {
					t.Fatalf("padded log record %d = %q, want %q", i, recs[i], wantRecs[i])
				}
			}
			if _, _, err := scanFrames(padded, "fuzz.log", false); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("zero-padded sealed segment returned %v, want ErrCorrupt", err)
			}
		}

		// Invariant 4: damage a payload byte of the FIRST frame when at
		// least two frames exist — valid data follows, so this must be
		// typed corruption even in the last segment.
		if len(wantRecs) >= 2 && len(wantRecs[0]) > 0 {
			mut := append([]byte(nil), valid...)
			mut[frameHeaderSize] ^= 0xA5
			if _, _, err := scanFrames(mut, "fuzz.log", true); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mid-log payload damage returned %v, want ErrCorrupt", err)
			}
			var ce *CorruptError
			if _, _, err := scanFrames(mut, "fuzz.log", true); !errors.As(err, &ce) {
				t.Fatal("mid-log damage did not carry *CorruptError")
			}
		}

		// Bonus: an absurd claimed length mid-log is typed corruption.
		if len(valid) >= frameHeaderSize {
			mut := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(mut[0:4], maxRecordBytes+1)
			_, _, err := scanFrames(mut, "fuzz.log", false)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("absurd length returned %v, want ErrCorrupt", err)
			}
		}
	})
}
