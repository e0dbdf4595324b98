package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Frame layout. Every WAL record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC32C of payload][payload]
//
// The checksum is CRC32 with the Castagnoli polynomial (the "C" in
// CRC32C), the same frame check used by RocksDB and LevelDB WALs: it
// detects every single-bit and single-byte error, so a frame whose
// payload was only partially written — the torn tail a crash leaves
// behind — can never decode as valid.
const (
	frameHeaderSize = 8

	// sectorSize is the smallest unit a disk writes whole, so the
	// smallest piece of an unsynced write a crash can lose.
	sectorSize = 512

	// maxRecordBytes bounds a single record. A claimed length beyond
	// this is treated as corruption, not as an instruction to allocate
	// gigabytes: the header bytes themselves may be the damaged part.
	maxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed encoding of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// CorruptError reports a WAL frame that failed validation somewhere
// other than the torn tail: data follows the bad frame, so the damage
// cannot be explained by an interrupted final write and recovery must
// not silently discard committed records.
type CorruptError struct {
	// Segment names the damaged file (empty for in-memory scans).
	Segment string
	// Offset is the byte offset of the bad frame within the segment.
	Offset int64
	// Reason describes what failed (checksum mismatch, absurd length).
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt wal frame in %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) match any *CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// scanFrames decodes consecutive frames from buf. Returned record
// slices alias buf.
//
// The tail rule implements crash semantics: an interrupted append can
// only damage the frames written after the last one synced, in the
// final segment. The live segment's file runs ahead of its frames in
// zeros (see preallocate), and a sector a crash kept from the disk reads
// back as it stood before those frames were written: zeros from the
// first unsynced frame on. So
//
//   - in the last segment (last=true), a bad frame is a torn tail —
//     scanning stops, good is the offset to truncate back to, and err is
//     nil — when it extends to or past the end of buf, when only zero
//     bytes follow it, or when a sector it touches reads as zeros from
//     the frame's start on (see lostSector);
//   - any other bad frame (or any bad frame at all when last=false) is
//     mid-log corruption and returns a *CorruptError, because a torn
//     write cannot leave valid bytes after itself without losing a
//     whole sector in between.
//
// good is always the offset just past the last valid frame.
func scanFrames(buf []byte, segment string, last bool) (records [][]byte, good int64, err error) {
	off := int64(0)
	n := int64(len(buf))
	for off < n {
		bad := func(reason string, torn bool) error {
			if last && torn {
				return nil // torn tail: truncate at off
			}
			return &CorruptError{Segment: segment, Offset: off, Reason: reason}
		}
		if n-off < frameHeaderSize {
			return records, good, bad("truncated frame header", true)
		}
		length := int64(binary.LittleEndian.Uint32(buf[off : off+4]))
		sum := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if length == 0 || length > maxRecordBytes {
			// The store never writes empty records, and lengths beyond
			// the cap mean the header itself is damaged. Either way the
			// claimed extent is untrustworthy, so the frame is treated
			// as reaching the end of the buffer.
			return records, good, bad(fmt.Sprintf("implausible frame length %d", length), true)
		}
		end := off + frameHeaderSize + length
		if end > n {
			return records, good, bad("truncated frame payload", true)
		}
		payload := buf[off+frameHeaderSize : end]
		if crc32.Checksum(payload, castagnoli) != sum {
			return records, good, bad("checksum mismatch", onlyZeros(buf[end:]) || lostSector(buf, off, end))
		}
		records = append(records, payload)
		off = end
		good = off
	}
	return records, good, nil
}

// onlyZeros reports whether b holds nothing but zero bytes (true when
// empty).
func onlyZeros(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// lostSector reports whether a sectorSize-aligned sector that the frame
// at buf[off:end] touches holds only zeros from the frame's start to the
// sector's end: the shape of a sector that never reached the disk, past
// the last synced frame of a preallocated segment. Random damage almost
// never zeroes a whole aligned sector.
func lostSector(buf []byte, off, end int64) bool {
	for s := off / sectorSize * sectorSize; s < end; s += sectorSize {
		if onlyZeros(buf[max(s, off):min(s+sectorSize, int64(len(buf)))]) {
			return true
		}
	}
	return false
}
