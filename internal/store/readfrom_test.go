package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// referenceReadFrom is ReadFrom as it was before the frame index: it
// re-reads and CRC-checks the live segments from byte 0 on every call.
// It numbers frames by counting them from the snapshot base in segment
// order, so it shares no bookkeeping with the index it checks.
func referenceReadFrom(s *Store, cursor uint64, maxBytes int) ([][]byte, uint64, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	s.mu.Lock()
	base, head := s.base, s.frames.Load()
	liveIdx, liveSize := s.index, s.size
	s.mu.Unlock()
	if cursor < base {
		return nil, cursor, ErrCompacted
	}
	if cursor >= head {
		return nil, cursor, nil
	}
	segs, snaps, err := scanDir(s.dir)
	if err != nil {
		return nil, cursor, err
	}
	first := uint64(0)
	if len(snaps) > 0 {
		first = snaps[len(snaps)-1]
	}
	var out [][]byte
	next, frame := cursor, base
	for _, idx := range segs {
		if idx < first {
			continue // a compacted leftover
		}
		buf, err := os.ReadFile(filepath.Join(s.dir, segName(idx)))
		if err != nil {
			return nil, cursor, err
		}
		if idx == liveIdx && int64(len(buf)) > liveSize {
			buf = buf[:liveSize] // never past the committed size
		}
		records, _, err := scanFrames(buf, segName(idx), true)
		if err != nil {
			return nil, cursor, err
		}
		for _, rec := range records {
			if frame >= next && frame < head {
				out = append(out, rec)
				next = frame + 1
				maxBytes -= len(rec)
				if maxBytes <= 0 {
					return out, next, nil
				}
			}
			frame++
		}
	}
	return out, next, nil
}

// indexCopy deep-copies the store's frame index and live size.
func indexCopy(s *Store) ([]liveSeg, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]liveSeg, len(s.segs))
	for i, sg := range s.segs {
		out[i] = liveSeg{idx: sg.idx, first: sg.first, ends: append([]int64(nil), sg.ends...)}
	}
	return out, s.size
}

// history drives one seeded random sequence of store operations and
// keeps a model of the committed stream: model[i] is frame i's payload
// (nil for frames a snapshot install skipped over) and digest the
// chained CRC32C a store holding it must report.
type history struct {
	t      *testing.T
	r      *rand.Rand
	dir    string
	opts   Options
	s      *Store
	model  [][]byte
	digest uint32

	// One-shot faults for the next Append.
	failSync, failWrite bool
	tearAt              int // > 0: write only the first tearAt bytes and crash
}

var errInjected = errors.New("injected")

func newHistory(t *testing.T, seed int64) *history {
	h := &history{t: t, r: rand.New(rand.NewSource(seed)), dir: t.TempDir()}
	h.opts = Options{SegmentBytes: 160, Faults: &Faults{
		Write: func(frames []byte) (int, error) {
			switch {
			case h.failWrite:
				h.failWrite = false
				return 0, errInjected
			case h.tearAt > 0:
				n := h.tearAt
				h.tearAt = 0
				return n, errInjected
			}
			return len(frames), nil
		},
		Sync: func() error {
			if h.failSync {
				h.failSync = false
				return errInjected
			}
			return nil
		},
	}}
	h.reopen()
	return h
}

func (h *history) reopen() {
	h.t.Helper()
	if h.s != nil {
		h.s.Close() // a store failed by a torn write reports no error here
	}
	s, _, err := Open(h.dir, h.opts, nil, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	h.s = s
}

func (h *history) records() [][]byte {
	n := 1
	if h.r.Intn(2) == 0 {
		n = 2 + h.r.Intn(5)
	}
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, 1+h.r.Intn(40))
		h.r.Read(recs[i])
	}
	return recs
}

func (h *history) commit(recs [][]byte) {
	for _, rec := range recs {
		h.model = append(h.model, rec)
		h.digest = crc32.Update(h.digest, castagnoli, rec)
	}
}

// step runs one random operation and describes it.
func (h *history) step() string {
	t := h.t
	switch p := h.r.Intn(100); {
	case p < 60:
		recs := h.records()
		if err := h.s.Append(recs...); err != nil {
			t.Fatal(err)
		}
		h.commit(recs)
		return fmt.Sprintf("append %d", len(recs))
	case p < 72:
		// A clean failure — fsync or write — must leave no trace.
		recs := h.records()
		idx, size := indexCopy(h.s)
		frames, digest := h.s.Frames(), h.s.StreamDigest()
		what := "fsync"
		if p < 66 {
			h.failSync = true
		} else {
			h.failWrite, what = true, "write"
		}
		if err := h.s.Append(recs...); !errors.Is(err, errInjected) {
			t.Fatalf("append under injected %s failure: %v", what, err)
		}
		if err := h.s.Healthy(); err != nil {
			t.Fatalf("clean %s failure latched the store: %v", what, err)
		}
		idx2, size2 := indexCopy(h.s)
		if size2 != size || h.s.Frames() != frames || h.s.StreamDigest() != digest || !reflect.DeepEqual(idx2, idx) {
			t.Fatalf("failed %s moved the store: size %d→%d frames %d→%d digest %08x→%08x index %v→%v",
				what, size, size2, frames, h.s.Frames(), digest, h.s.StreamDigest(), idx, idx2)
		}
		return fmt.Sprintf("failed %s of %d", what, len(recs))
	case p < 77:
		// A crash mid-write, then recovery: the whole frames before the
		// tear survive, the torn one is cut, and the index is rebuilt.
		recs := h.records()
		total := 0
		for _, rec := range recs {
			total += frameHeaderSize + len(rec)
		}
		tear := 1 + h.r.Intn(total-1)
		h.tearAt = tear
		if err := h.s.Append(recs...); !errors.Is(err, errInjected) {
			t.Fatalf("torn append: %v", err)
		}
		h.reopen()
		kept := 0
		for end := 0; kept < len(recs); kept++ {
			if end += frameHeaderSize + len(recs[kept]); end > tear {
				break
			}
		}
		h.commit(recs[:kept])
		return fmt.Sprintf("torn append of %d at byte %d/%d (%d kept), reopen", len(recs), tear, total, kept)
	case p < 85:
		if err := h.s.Snapshot(func(w io.Writer) error {
			_, err := w.Write([]byte("state"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return "snapshot"
	case p < 90:
		skip := uint64(h.r.Intn(4))
		at, digest := h.s.Frames()+skip, h.r.Uint32()
		if err := h.s.InstallSnapshot(at, digest, strings.NewReader("leader state")); err != nil {
			t.Fatal(err)
		}
		h.model = append(h.model, make([][]byte, skip)...)
		h.digest = digest
		return fmt.Sprintf("install snapshot at %d", at)
	default:
		h.reopen()
		return "reopen"
	}
}

// check compares ReadFrom with the reference for every cursor and a
// spread of budgets, and the stream with the model.
func (h *history) check(what string) {
	t := h.t
	t.Helper()
	s := h.s
	s.mu.Lock()
	base, head, live := s.base, s.frames.Load(), s.index
	s.mu.Unlock()
	if head != uint64(len(h.model)) || s.StreamDigest() != h.digest {
		t.Fatalf("after %s: frames %d digest %08x, model %d/%08x", what, head, s.StreamDigest(), len(h.model), h.digest)
	}
	// The index covers exactly the live frames [base, head), segment
	// after consecutive segment, and ends at the live segment.
	idx, _ := indexCopy(s)
	next := base
	for _, sg := range idx {
		if sg.first != next {
			t.Fatalf("after %s: index %v does not run contiguously from base %d", what, idx, base)
		}
		next += uint64(len(sg.ends))
	}
	if next != head || idx[len(idx)-1].idx != live {
		t.Fatalf("after %s: index %v does not end at frame %d in live segment %d", what, idx, head, live)
	}
	from := base
	if from > 0 {
		from-- // one compacted cursor
	}
	for c := from; c <= head; c++ {
		for _, budget := range []int{1, 9, 40, 1 << 20} {
			got, gotNext, gotErr := s.ReadFrom(c, budget)
			want, wantNext, wantErr := referenceReadFrom(s, c, budget)
			if wantErr != nil && !errors.Is(wantErr, ErrCompacted) {
				t.Fatalf("after %s: reference ReadFrom(%d, %d): %v", what, c, budget, wantErr)
			}
			if errors.Is(gotErr, ErrCompacted) != errors.Is(wantErr, ErrCompacted) ||
				(gotErr != nil && !errors.Is(gotErr, ErrCompacted)) {
				t.Fatalf("after %s: ReadFrom(%d, %d) err %v, reference %v", what, c, budget, gotErr, wantErr)
			}
			if gotNext != wantNext || len(got) != len(want) {
				t.Fatalf("after %s: ReadFrom(%d, %d) = %d recs next %d, reference %d recs next %d",
					what, c, budget, len(got), gotNext, len(want), wantNext)
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("after %s: ReadFrom(%d, %d) record %d = %x, reference %x", what, c, budget, i, got[i], want[i])
				}
				if m := h.model[c+uint64(i)]; m != nil && !bytes.Equal(got[i], m) {
					t.Fatalf("after %s: frame %d = %x, committed %x", what, c+uint64(i), got[i], m)
				}
			}
		}
	}
}

func TestReadFromMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newHistory(t, seed)
			defer func() { h.s.Close() }()
			h.check("open")
			for i := 0; i < 150; i++ {
				h.check(fmt.Sprintf("step %d (%s)", i, h.step()))
			}
		})
	}
}

func TestReadFromCorruptRangeTypedError(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil, nil)
	defer s.Close()
	appendAll(t, s, "alpha", "beta", "gamma")
	// Flip a payload byte of the middle frame behind the store's back.
	path := filepath.Join(dir, segName(s.index))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 2*frameHeaderSize + len("alpha")
	buf[off] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := s.ReadFrom(0, 1); err != nil || string(recs[0]) != "alpha" {
		t.Fatalf("ReadFrom before the damage = %q, %v", recs, err)
	}
	var ce *CorruptError
	if _, _, err := s.ReadFrom(1, 1); !errors.As(err, &ce) || ce.Offset != int64(frameHeaderSize+len("alpha")) {
		t.Fatalf("ReadFrom over the damaged frame: %v, want a *CorruptError at its offset", err)
	}
	// Valid frames that are not the ones the index promises are corrupt
	// too: frames 1 and 2 rewritten as one frame of the same length.
	merged := appendFrame(buf[:frameHeaderSize+len("alpha")], bytes.Repeat([]byte("m"), len("beta")+len("gamma")+frameHeaderSize))
	if err := os.WriteFile(path, merged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadFrom(1, 1<<20); !errors.As(err, &ce) {
		t.Fatalf("ReadFrom over re-framed bytes: %v, want a *CorruptError", err)
	}
	// So is a segment cut short of what the index promises.
	if err := os.Truncate(path, int64(off)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadFrom(2, 1); !errors.As(err, &ce) {
		t.Fatalf("ReadFrom past a truncated segment: %v, want a *CorruptError", err)
	}
}

// TestReadFromConcurrentTailers runs tailing readers against writers
// that append single and multi-record batches across tiny segments
// while a compactor snapshots: every batch a reader gets must be a
// contiguous, byte-identical slice of what the writers committed.
func TestReadFromConcurrentTailers(t *testing.T) {
	s, _, err := Open(t.TempDir(), Options{Policy: FsyncNever, SegmentBytes: 512}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter, readers = 2, 400, 3

	// committed mirrors the stream: commitMu is held across each Append
	// so the order here is the store's order.
	var commitMu sync.RWMutex
	var committed [][]byte

	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			r := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < perWriter; {
				batch := make([][]byte, min(1+r.Intn(4), perWriter-i))
				for j := range batch {
					batch[j] = []byte(fmt.Sprintf("w%d-%d-%s", w, i+j, strings.Repeat("x", r.Intn(60))))
				}
				commitMu.Lock()
				err := s.Append(batch...)
				if err == nil {
					committed = append(committed, batch...)
				}
				commitMu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				i += len(batch)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		writing.Wait()
		close(done)
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Snapshot(func(w io.Writer) error {
				_, err := w.Write([]byte("state"))
				return err
			}); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()

	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + rd)))
			var cursor uint64
			for {
				head := s.Frames()
				batch, next, err := s.ReadFrom(cursor, 1+r.Intn(300))
				if errors.Is(err, ErrCompacted) {
					// Re-bootstrap at the snapshot boundary, as the shipper
					// does; a snapshot replaced mid-lookup is retried.
					if fb, _, _, err := s.LatestSnapshot(); err == nil && fb > cursor {
						cursor = fb
					}
					continue
				}
				if err != nil {
					t.Errorf("reader %d: ReadFrom(%d): %v", rd, cursor, err)
					return
				}
				if next != cursor+uint64(len(batch)) {
					t.Errorf("reader %d: ReadFrom(%d) = %d records, next %d", rd, cursor, len(batch), next)
					return
				}
				if len(batch) == 0 {
					if cursor < head {
						t.Errorf("reader %d: empty batch at %d below head %d", rd, cursor, head)
						return
					}
					select {
					case <-done:
						if cursor == s.Frames() {
							return
						}
					default:
					}
					runtime.Gosched()
					continue
				}
				commitMu.RLock()
				for i, rec := range batch {
					if want := committed[cursor+uint64(i)]; !bytes.Equal(rec, want) {
						t.Errorf("reader %d: frame %d = %q, committed %q", rd, cursor+uint64(i), rec, want)
					}
				}
				commitMu.RUnlock()
				cursor = next
			}
		}(rd)
	}
	wg.Wait()
	if got := s.Frames(); got != writers*perWriter {
		t.Fatalf("frames = %d, want %d", got, writers*perWriter)
	}
}

// BenchmarkReadFrom reads the newest frame of a live segment holding
// n frames: a shipment's cost should not grow with n.
func BenchmarkReadFrom(b *testing.B) {
	rec := bytes.Repeat([]byte("r"), 256)
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			s, _, err := Open(b.TempDir(), Options{Policy: FsyncNever}, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < n; i++ {
				if err := s.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, next, err := s.ReadFrom(uint64(n-1), 256<<10)
				if err != nil || len(recs) != 1 || next != uint64(n) {
					b.Fatalf("ReadFrom(%d) = %d records, next %d, err %v", n-1, len(recs), next, err)
				}
			}
			b.StopTimer() // the deferred Close fsyncs the whole segment
		})
	}
}
