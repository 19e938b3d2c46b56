package logging

import (
	"bytes"
	"testing"

	"silo/internal/pm"
)

// FuzzDecodeImage feeds arbitrary bytes to the log-record decoder: it must
// never panic and never read past the declared record size, and any record
// it accepts must re-encode to the same bytes (up to its size).
func FuzzDecodeImage(f *testing.F) {
	var seed [UndoRedoBytes]byte
	Image{Kind: ImageUndoRedo, TID: 1, TxID: 2, Addr: 0x1000, Data: 3, Data2: 4}.Encode(seed[:])
	f.Add(seed[:])
	f.Add([]byte{0})
	f.Add([]byte{0x0B, 1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		im, n, ok := DecodeImage(in)
		if !ok {
			return
		}
		if n > len(in) {
			t.Fatalf("decoder claimed %d bytes from a %d-byte input", n, len(in))
		}
		var buf [UndoRedoBytes]byte
		n2 := im.Encode(buf[:])
		if n2 != n {
			t.Fatalf("re-encode size %d != decoded size %d", n2, n)
		}
		if !bytes.Equal(buf[:n], in[:n]) {
			t.Fatalf("re-encode differs: %x vs %x", buf[:n], in[:n])
		}
	})
}

// sealed returns im sealed with seq, exactly sized.
func sealed(im Image, seq uint8) []byte {
	var buf [MaxSealedBytes]byte
	n := im.Seal(buf[:], seq)
	return append([]byte(nil), buf[:n]...)
}

// FuzzUnsealImage feeds arbitrary bytes plus an expected sequence number
// to the sealed-record parser. It must never panic; anything it accepts
// must carry the expected sequence number and re-seal to the identical
// bytes (a valid CRC over a canonical encoding); anything it rejects
// must be classified, never interpreted.
func FuzzUnsealImage(f *testing.F) {
	rec := Image{Kind: ImageUndoRedo, TID: 1, TxID: 2, Addr: 0x1000, Data: 3, Data2: 4}
	undo := Image{Kind: ImageUndo, TID: 3, TxID: 9, Addr: 0x2000, Data: 7}

	f.Add(sealed(rec, 0), uint8(0))                   // well-formed record
	f.Add(sealed(CommitImage(1, 2), 17), uint8(17))   // commit tuple, mid-log seq
	f.Add(sealed(undo, 255), uint8(255))              // seq at the wraparound boundary
	f.Add(sealed(rec, 0), uint8(1))                   // wrong expected seq
	f.Add([]byte{}, uint8(0))                         // zero-length input
	f.Add([]byte{0}, uint8(0))                        // erased media (valid bit clear)
	f.Add(sealed(rec, 5)[:UndoRedoBytes+1], uint8(5)) // torn mid-trailer

	// Payload bit flipped under a stale CRC: the checksum must catch it.
	flip := sealed(rec, 3)
	flip[HeaderBytes] ^= 0x10
	f.Add(flip, uint8(3))

	// CRC-collision-adjacent corruption: each trailer byte off by one.
	nearLo := sealed(rec, 3)
	nearLo[len(nearLo)-2]++
	f.Add(nearLo, uint8(3))
	nearHi := sealed(rec, 3)
	nearHi[len(nearHi)-1]++
	f.Add(nearHi, uint8(3))

	f.Fuzz(func(t *testing.T, in []byte, wantSeq uint8) {
		im, n, status := UnsealImage(in, wantSeq)
		switch status {
		case SealOK:
			if n < CommitBytes+SealBytes || n > len(in) || n > MaxSealedBytes {
				t.Fatalf("accepted record with impossible size %d (input %d)", n, len(in))
			}
			if in[n-SealBytes] != wantSeq {
				t.Fatalf("accepted record carries seq %d, want %d", in[n-SealBytes], wantSeq)
			}
			again := sealed(im, wantSeq)
			if !bytes.Equal(again, in[:n]) {
				t.Fatalf("re-seal differs: %x vs %x", again, in[:n])
			}
		case SealEnd, SealCorrupt:
			if n != 0 {
				t.Fatalf("rejected record (status %d) claimed %d bytes", status, n)
			}
		default:
			t.Fatalf("unknown seal status %d", status)
		}
	})
}

// FuzzScanChecked drops arbitrary bytes onto a log area's media and runs
// the checked recovery scan over it. The scan must never panic, must
// stop at the first tear (quarantining at most one record), and every
// record it accepts must re-seal byte-identically to the media it was
// read from — the scan never "repairs" what it parses.
func FuzzScanChecked(f *testing.F) {
	rec := Image{Kind: ImageUndoRedo, TID: 0, TxID: 2, Addr: 0x1000, Data: 3, Data2: 4}

	stream := func(n int) []byte { // n well-formed records, consecutive seqs
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, sealed(CommitImage(0, uint16(i)), uint8(i))...)
		}
		return b
	}
	f.Add([]byte{})                            // empty log
	f.Add(stream(3))                           // clean short log
	f.Add(stream(300))                         // sequence number wraps past 255 mid-log
	f.Add(append(stream(2), 0xFF, 0x13, 0x88)) // valid prefix, then garbage

	torn := append(stream(1), sealed(rec, 1)[:12]...) // record cut mid-payload
	f.Add(torn)

	flipped := append(stream(1), sealed(rec, 1)...) // payload bit flip, stale CRC
	flipped[len(flipped)-10] ^= 0x01
	f.Add(flipped)

	near := append(stream(1), sealed(rec, 1)...) // CRC byte off by one
	near[len(near)-1]++
	f.Add(near)

	f.Fuzz(func(t *testing.T, media []byte) {
		if len(media) > 4096 {
			media = media[:4096]
		}
		dev := pm.New(pm.DefaultConfig())
		w := NewRegionWriter(dev, 1)
		dev.Populate(w.AreaBase(0), media)

		res := w.ScanChecked(0)
		if res.Quarantined > 1 {
			t.Fatalf("scan quarantined %d records; it must stop at the first tear", res.Quarantined)
		}
		// Every accepted record must re-seal to exactly the media bytes
		// it came from, in order, from the area base.
		var replay []byte
		for i, im := range res.Images {
			replay = append(replay, sealed(im, uint8(i))...)
		}
		if len(replay) > len(media) {
			t.Fatalf("scan accepted %d bytes from %d bytes of media", len(replay), len(media))
		}
		if !bytes.Equal(replay, media[:len(replay)]) {
			t.Fatalf("accepted records differ from media:\n%x\nvs\n%x", replay, media[:len(replay)])
		}
	})
}
