package resultstore

import (
	"fmt"
	"hash/crc32"
	"os"
)

// Recover extracts the sealed chunk prefix of an unsealed or damaged
// segment — the artifact a killed writer leaves at <path>.tmp — and
// returns every intact record payload in append order, byte-exactly as
// written. Scanning stops at the first torn or unsealed tail (the only
// thing a crashed append can produce), which is interruption, not an
// error; a file that is not an SRS1 segment at all is ErrNotStore.
// Trace chunks are skipped: losing debug blobs to a crash is fine,
// losing records is not.
func Recover(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return recoverBytes(data)
}

func recoverBytes(data []byte) ([][]byte, error) {
	if err := checkMagic(data); err != nil {
		return nil, err
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if v := le.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, Version)
	}
	var payloads [][]byte
	off := headerSize
	for off+4 <= len(data) {
		switch le.Uint32(data[off:]) {
		case chunkMagic:
			if off+chunkHdrSize > len(data) {
				return payloads, nil // torn chunk header
			}
			areaLen := int(le.Uint32(data[off+8:]))
			crc := le.Uint32(data[off+12:])
			start, end := off+chunkHdrSize, off+chunkHdrSize+areaLen
			if areaLen < 0 || end < start || end > len(data) {
				return payloads, nil // torn chunk body
			}
			area := data[start:end]
			if crc32.ChecksumIEEE(area) != crc {
				return payloads, nil // torn or bit-flipped chunk
			}
			recs, ok := splitFrames(area)
			if !ok {
				// A CRC-valid chunk with inconsistent framing is not a
				// torn write — the writer never produces it.
				return payloads, fmt.Errorf("%w: chunk at %d: CRC valid but frames inconsistent", ErrCorrupt, off)
			}
			payloads = append(payloads, recs...)
			off = end
		case traceMagic:
			if off+traceHdrSize > len(data) {
				return payloads, nil
			}
			compLen := int(le.Uint32(data[off+16:]))
			crc := le.Uint32(data[off+20:])
			start, end := off+traceHdrSize, off+traceHdrSize+compLen
			if compLen < 0 || end < start || end > len(data) {
				return payloads, nil
			}
			if crc32.ChecksumIEEE(data[start:end]) != crc {
				return payloads, nil
			}
			off = end
		default:
			// Names section of a sealed file, a torn tail, or garbage:
			// either way the record stream ends here.
			return payloads, nil
		}
	}
	return payloads, nil
}

// splitFrames parses a chunk's records area: u32 length-prefixed
// payloads, copied out so callers outlive the scan buffer.
func splitFrames(area []byte) ([][]byte, bool) {
	var recs [][]byte
	for len(area) > 0 {
		if len(area) < 4 {
			return nil, false
		}
		n := int(le.Uint32(area))
		area = area[4:]
		if n < 0 || n > len(area) {
			return nil, false
		}
		recs = append(recs, append([]byte(nil), area[:n]...))
		area = area[n:]
	}
	return recs, true
}
