// Package logging defines the hardware-logging building blocks shared by
// Silo and the baseline designs: the undo+redo log entry (Fig. 6), the
// battery-backed on-chip log buffer with per-entry comparators (§III-B),
// the distributed per-thread log region writer, and the Design interface
// through which the simulated machine drives a logging scheme.
package logging

import (
	"fmt"

	"silo/internal/mem"
)

// Entry is one hardware log entry (Fig. 6): a flush-bit, an 8-bit thread
// ID, a 16-bit transaction ID, the 48-bit physical address of the logged
// word, and the old and new data words. On chip it is an undo+redo entry;
// when written to PM it is serialized as an undo-only (18 B), redo-only
// (18 B) or commit-record (10 B) image.
type Entry struct {
	FlushBit bool
	TID      uint8
	TxID     uint16
	Addr     mem.Addr // word-aligned; 48 bits significant
	Old      mem.Word
	New      mem.Word
}

// Serialized log-image sizes in bytes.
const (
	// HeaderBytes is the serialized metadata: flags(1) + tid(1) +
	// txid(2) + addr(6).
	HeaderBytes = 10
	// UndoBytes is an undo log image: header + old data (18 B, §III-F).
	UndoBytes = HeaderBytes + mem.WordSize
	// RedoBytes is a redo log image: header + new data.
	RedoBytes = HeaderBytes + mem.WordSize
	// UndoRedoBytes is the full on-chip entry serialized: header + old +
	// new (26 B, §VI-D).
	UndoRedoBytes = HeaderBytes + 2*mem.WordSize
	// CommitBytes is an ID-tuple commit record: header only.
	CommitBytes = HeaderBytes
	// OnChipEntryBytes is the per-entry on-chip cost used for the log
	// buffer capacity math in §VI-D: the 26 B entry plus its 8 B
	// assigned physical address in the log region (20 × 34 B = 680 B).
	OnChipEntryBytes = UndoRedoBytes + 8
)

// Image kinds, stored in the flags byte of a serialized entry.
type ImageKind uint8

const (
	// ImageUndo carries the old data word.
	ImageUndo ImageKind = iota
	// ImageRedo carries the new data word.
	ImageRedo
	// ImageCommit is an ID tuple (tid, txid) marking a committed
	// transaction whose redo logs were crash-flushed (§III-G).
	ImageCommit
	// ImageUndoRedo carries both words — the 26 B full entry the
	// conventional "log as backup" baselines write per store.
	ImageUndoRedo
)

func (k ImageKind) String() string {
	switch k {
	case ImageUndo:
		return "undo"
	case ImageRedo:
		return "redo"
	case ImageCommit:
		return "commit"
	case ImageUndoRedo:
		return "undo+redo"
	}
	return "invalid"
}

// Image is one serialized log-region record.
type Image struct {
	Kind     ImageKind
	FlushBit bool
	TID      uint8
	TxID     uint16
	Addr     mem.Addr
	Data     mem.Word // old (undo/undo+redo) or new (redo)
	Data2    mem.Word // new (undo+redo only)
}

// Size returns the serialized byte size of the image.
func (im Image) Size() int {
	switch im.Kind {
	case ImageCommit:
		return CommitBytes
	case ImageUndoRedo:
		return UndoRedoBytes
	default:
		return UndoBytes
	}
}

const (
	kindMask  = 0b11
	flagFlush = 1 << 2
	flagValid = 1 << 3
)

// Encode serializes the image into buf and returns the bytes written.
// The layout is fixed so recovery can parse the log region byte stream.
func (im Image) Encode(buf []byte) int {
	flags := byte(im.Kind&kindMask) | flagValid
	if im.FlushBit {
		flags |= flagFlush
	}
	buf[0] = flags
	buf[1] = im.TID
	buf[2] = byte(im.TxID)
	buf[3] = byte(im.TxID >> 8)
	a := uint64(im.Addr & mem.AddrMask48)
	for i := 0; i < 6; i++ {
		buf[4+i] = byte(a >> (8 * i))
	}
	if im.Kind == ImageCommit {
		return CommitBytes
	}
	for i := 0; i < 8; i++ {
		buf[HeaderBytes+i] = byte(im.Data >> (8 * i))
	}
	if im.Kind != ImageUndoRedo {
		return UndoBytes
	}
	for i := 0; i < 8; i++ {
		buf[HeaderBytes+8+i] = byte(im.Data2 >> (8 * i))
	}
	return UndoRedoBytes
}

// DecodeImage parses one record from buf. ok is false when buf starts with
// an invalid/empty record (end of a thread's log area) or when reserved
// flag bits are set — recovery must not guess at records it does not
// fully understand.
func DecodeImage(buf []byte) (im Image, n int, ok bool) {
	if len(buf) < CommitBytes || buf[0]&flagValid == 0 {
		return Image{}, 0, false
	}
	if buf[0]&^(kindMask|flagFlush|flagValid) != 0 {
		return Image{}, 0, false
	}
	im.Kind = ImageKind(buf[0] & kindMask)
	im.FlushBit = buf[0]&flagFlush != 0
	im.TID = buf[1]
	im.TxID = uint16(buf[2]) | uint16(buf[3])<<8
	var a uint64
	for i := 5; i >= 0; i-- {
		a = a<<8 | uint64(buf[4+i])
	}
	im.Addr = mem.Addr(a)
	if im.Kind == ImageCommit {
		return im, CommitBytes, true
	}
	if len(buf) < UndoBytes {
		return Image{}, 0, false
	}
	var d mem.Word
	for i := 7; i >= 0; i-- {
		d = d<<8 | mem.Word(buf[HeaderBytes+i])
	}
	im.Data = d
	if im.Kind != ImageUndoRedo {
		return im, UndoBytes, true
	}
	if len(buf) < UndoRedoBytes {
		return Image{}, 0, false
	}
	var d2 mem.Word
	for i := 7; i >= 0; i-- {
		d2 = d2<<8 | mem.Word(buf[HeaderBytes+8+i])
	}
	im.Data2 = d2
	return im, UndoRedoBytes, true
}

// On-media sealing. Encode/DecodeImage describe the *logical* record
// layout whose sizes the paper's capacity math depends on (18 B undo,
// 26 B undo+redo, §III-F/§VI-D). On media every record additionally
// carries a 3 B seal trailer — a sequence number and a CRC — so a
// recovery scan can tell a torn or bit-flipped record from a good one
// instead of replaying garbage. The trailer models the ECC/metadata
// bits PM DIMMs already store out-of-band per line, which is why it is
// not charged against the paper's record sizes.
const (
	// SealBytes is the on-media trailer: seq(1) + crc16(2).
	SealBytes = 3
	// MaxSealedBytes bounds any sealed record (undo+redo + trailer).
	MaxSealedBytes = UndoRedoBytes + SealBytes
)

// SealStatus classifies what UnsealImage found at a scan position.
type SealStatus uint8

const (
	// SealOK: a well-formed record.
	SealOK SealStatus = iota
	// SealEnd: erased media (valid bit clear) — the clean end of a log.
	SealEnd
	// SealCorrupt: a record that started but fails its checksum, carries
	// an out-of-order sequence number, or is cut off by the area end —
	// a torn crash flush or a media fault. The scan must quarantine it.
	SealCorrupt
)

// crc16Tables drive the slicing-by-8 CRC below. crc16Tables[0] is the
// classic byte-at-a-time table; crc16Tables[k][b] is the register after
// byte b followed by k zero bytes, so eight table lookups XORed together
// advance the CRC over eight input bytes at once. (The bit-serial
// version was once the single hottest function in a torture sweep, and
// the byte-at-a-time table still cost recovery scans most of their time.)
var crc16Tables = func() (t [8][256]uint16) {
	for i := range t[0] {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[0][i] = crc
	}
	for k := 1; k < len(t); k++ {
		for i := range t[k] {
			prev := t[k-1][i]
			t[k][i] = prev<<8 ^ t[0][byte(prev>>8)]
		}
	}
	return t
}()

// crc16 is CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) — small enough
// for a log-controller datapath, strong enough to catch any torn 8-byte
// suffix or single bit flip in a ≤29 B record. The CRC is linear, so
// the 16-bit register folds into the first two bytes of each 8-byte
// block and every byte's contribution is one lookup.
func crc16(b []byte) uint16 {
	crc := uint16(0xFFFF)
	t := &crc16Tables
	for len(b) >= 8 {
		crc = t[7][byte(crc>>8)^b[0]] ^ t[6][byte(crc)^b[1]] ^
			t[5][b[2]] ^ t[4][b[3]] ^ t[3][b[4]] ^ t[2][b[5]] ^
			t[1][b[6]] ^ t[0][b[7]]
		b = b[8:]
	}
	for _, c := range b {
		crc = crc<<8 ^ t[0][byte(crc>>8)^c]
	}
	return crc
}

// Seal serializes the image plus its on-media trailer into buf and
// returns the bytes written. seq is the record's position (mod 256) in
// its thread's log area since the last truncation; the CRC covers the
// record and the sequence number.
func (im Image) Seal(buf []byte, seq uint8) int {
	n := im.Encode(buf)
	buf[n] = seq
	c := crc16(buf[:n+1])
	buf[n+1] = byte(c)
	buf[n+2] = byte(c >> 8)
	return n + SealBytes
}

// UnsealImage parses one sealed record from buf, checking its CRC and
// expected sequence number. It distinguishes the clean end of a log
// (erased media) from a torn or corrupt record, which recovery must
// quarantine rather than interpret.
func UnsealImage(buf []byte, wantSeq uint8) (im Image, n int, status SealStatus) {
	if len(buf) == 0 || buf[0]&flagValid == 0 {
		return Image{}, 0, SealEnd
	}
	im, sz, ok := DecodeImage(buf)
	if !ok || len(buf) < sz+SealBytes {
		return Image{}, 0, SealCorrupt
	}
	if buf[sz] != wantSeq {
		return Image{}, 0, SealCorrupt
	}
	if c := crc16(buf[:sz+1]); buf[sz+1] != byte(c) || buf[sz+2] != byte(c>>8) {
		return Image{}, 0, SealCorrupt
	}
	return im, sz + SealBytes, SealOK
}

// UndoImage serializes e's undo half.
func (e Entry) UndoImage() Image {
	return Image{Kind: ImageUndo, FlushBit: e.FlushBit, TID: e.TID, TxID: e.TxID, Addr: e.Addr, Data: e.Old}
}

// RedoImage serializes e's redo half.
func (e Entry) RedoImage() Image {
	return Image{Kind: ImageRedo, FlushBit: e.FlushBit, TID: e.TID, TxID: e.TxID, Addr: e.Addr, Data: e.New}
}

// CommitImage builds the ID tuple for (tid, txid).
func CommitImage(tid uint8, txid uint16) Image {
	return Image{Kind: ImageCommit, TID: tid, TxID: txid}
}

// String formats the entry for debugging.
func (e Entry) String() string {
	fb := 0
	if e.FlushBit {
		fb = 1
	}
	return fmt.Sprintf("log{f=%d t%d/x%d %s old=%#x new=%#x}", fb, e.TID, e.TxID, e.Addr, uint64(e.Old), uint64(e.New))
}
