// Package resultstore implements SRS1, an mmap-friendly binary on-disk
// format for fleet campaign results: a dense fixed-size index row per
// campaign for scan-fast filtering plus a variable-length payload
// section holding the full records (and optional compressed trace
// blobs). It is the fleet's only checkpoint format (JSONL survives as
// an export and import in silo-report) — "query one million campaign
// results" is an index scan over a memory-mapped file, not a million
// JSON parses.
//
// On-disk layout (all integers little-endian):
//
//	header (96 B) | payload section | names section | index section | footer (32 B)
//
// The payload section is a sequence of CRC-sealed chunks streamed by a
// single writer into a temporary segment (<path>.tmp); the names, index
// and finalized header are written at Seal, and the store is published
// by an atomic rename. An interrupted writer therefore leaves either a
// valid sealed store or a temp segment whose sealed chunk prefix is
// recoverable byte-exactly (Recover); anything else — bad magic, bad
// length, bad CRC — is a detectable ErrCorrupt, never a silent
// misread. See DESIGN.md §8 for the normative spec.
package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt is wrapped by every corruption-detection failure: bad
// magic, impossible lengths, CRC mismatches, and unsealed segments.
var ErrCorrupt = errors.New("resultstore: corrupt store")

// ErrNotStore is wrapped when a file does not begin with the SRS1
// magic: it is some other format (a JSONL checkpoint, a trace), not a
// damaged store, so there is nothing to recover. It wraps ErrCorrupt,
// so a caller asking only "is this a readable store?" needs no second
// check.
var ErrNotStore error = notStoreError{}

type notStoreError struct{}

func (notStoreError) Error() string { return "resultstore: not an SRS1 file" }
func (notStoreError) Unwrap() error { return ErrCorrupt }

// checkMagic is the header check that tells a store (sealed or a temp
// segment, however torn past its magic) from any other file.
func checkMagic(b []byte) error {
	if len(b) < len(Magic) || string(b[:len(Magic)]) != Magic {
		return fmt.Errorf("%w (starts %q)", ErrNotStore, b[:min(len(b), len(Magic))])
	}
	return nil
}

const (
	// Magic opens every SRS1 file, sealed or not.
	Magic   = "SRS1"
	Version = 1

	headerSize  = 96
	footerSize  = 32
	footerMagic = "SRS1SEAL"

	// RowSize is the fixed index-row width. Readers reject stores whose
	// header disagrees: a future version that grows the row bumps both
	// Version and RowSize, and old readers fail loudly instead of
	// misparsing.
	RowSize = 208

	chunkMagic   = 0x4B4E4843 // "CHNK" — a sealed batch of records
	traceMagic   = 0x45435254 // "TRCE" — one compressed trace blob
	chunkHdrSize = 16         // magic u32, count u32, areaLen u32, areaCRC u32
	traceHdrSize = 24         // magic u32, pad u32, index i64, compLen u32, compCRC u32
)

// Kind classifies a campaign outcome in the index, mirroring the
// record's reporting logic: Infra wins over everything (no durability
// verdict), then a run error, then golden-shadow mismatches.
type Kind uint8

const (
	KindOK       Kind = iota // verified clean
	KindMismatch             // post-recovery golden-shadow mismatches
	KindError                // the campaign errored (incl. audit violations)
	KindInfra                // watchdog/host failure; no durability verdict
)

func (k Kind) String() string {
	switch k {
	case KindOK:
		return "ok"
	case KindMismatch:
		return "mismatch"
	case KindError:
		return "error"
	case KindInfra:
		return "infra"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Row flags.
const (
	flagMidRun   = 1 << 0
	flagPanicked = 1 << 1
	flagTimedOut = 1 << 2
	flagInfra    = 1 << 3
	flagHasAvail = 1 << 4
	flagComplete = 1 << 5 // recovery pass ran to completion
)

// Row is one campaign's fixed-size index entry: everything a filter or
// aggregate needs without touching the variable-length payload. String
// fields are interned in the store's names table.
type Row struct {
	Index   int64
	Seed    int64
	Commits int64
	Torn    int64
	Dropped int64

	Restarts   uint32
	Mismatches uint32 // count only; the strings live in the payload

	Design    string
	Workload  string
	Invariant string // audit invariant that fired ("" = none)

	Attempts uint16
	Kind     Kind
	MidRun   bool
	Panicked bool
	TimedOut bool
	Infra    bool
	Complete bool

	// Recovery-report counters.
	CommittedTx   uint32
	RedoApplied   uint32
	UndoApplied   uint32
	Discarded     uint32
	Quarantined   uint32
	TotalRecords  uint32
	AppliedWrites uint32

	// Phase-split availability window fields (cluster campaigns).
	HasAvail   bool
	Replicas   uint16
	Mode       string // "sync"/"async"; "" for R=1
	Windows    uint32
	Strikes    uint32
	DetectSum  int64
	PromoteSum int64
	ResyncSum  int64
	WidthSum   int64
	WidthMax   int64
	OwnerSum   int64
	OwnerMax   int64
	AckedLost  int64

	// Payload/trace locations, assigned by the writer.
	payloadOff uint64
	payloadLen uint32
	payloadCRC uint32
	traceOff   uint64
	traceLen   uint32
	traceCRC   uint32
}

// Failed reports whether the row records a durability verdict against
// the design (a run error or golden-shadow mismatches). Infra rows are
// not failures — they carry no verdict at all.
func (r Row) Failed() bool { return r.Kind == KindMismatch || r.Kind == KindError }

// HasTrace reports whether a compressed trace blob is attached.
func (r Row) HasTrace() bool { return r.traceLen > 0 }

// PayloadLen returns the size of the row's payload record in bytes.
func (r Row) PayloadLen() int { return int(r.payloadLen) }

var le = binary.LittleEndian

// encodeRow writes r into dst[:RowSize]. Names are pre-interned ids.
func encodeRow(dst []byte, r *Row, designID, workloadID, invariantID, modeID uint16) {
	_ = dst[RowSize-1]
	le.PutUint64(dst[0:], uint64(r.Index))
	le.PutUint64(dst[8:], uint64(r.Seed))
	le.PutUint64(dst[16:], uint64(r.Commits))
	le.PutUint64(dst[24:], uint64(r.Torn))
	le.PutUint64(dst[32:], uint64(r.Dropped))
	le.PutUint32(dst[40:], r.Restarts)
	le.PutUint32(dst[44:], r.Mismatches)
	le.PutUint16(dst[48:], designID)
	le.PutUint16(dst[50:], workloadID)
	le.PutUint16(dst[52:], invariantID)
	le.PutUint16(dst[54:], r.Attempts)
	dst[56] = uint8(r.Kind)
	var flags uint8
	if r.MidRun {
		flags |= flagMidRun
	}
	if r.Panicked {
		flags |= flagPanicked
	}
	if r.TimedOut {
		flags |= flagTimedOut
	}
	if r.Infra {
		flags |= flagInfra
	}
	if r.HasAvail {
		flags |= flagHasAvail
	}
	if r.Complete {
		flags |= flagComplete
	}
	dst[57] = flags
	le.PutUint16(dst[58:], r.Replicas)
	le.PutUint16(dst[60:], modeID)
	le.PutUint16(dst[62:], 0) // reserved
	le.PutUint32(dst[64:], r.CommittedTx)
	le.PutUint32(dst[68:], r.RedoApplied)
	le.PutUint32(dst[72:], r.UndoApplied)
	le.PutUint32(dst[76:], r.Discarded)
	le.PutUint32(dst[80:], r.Quarantined)
	le.PutUint32(dst[84:], r.TotalRecords)
	le.PutUint32(dst[88:], r.AppliedWrites)
	le.PutUint32(dst[92:], r.Windows)
	le.PutUint32(dst[96:], r.Strikes)
	le.PutUint32(dst[100:], 0) // reserved
	le.PutUint64(dst[104:], uint64(r.DetectSum))
	le.PutUint64(dst[112:], uint64(r.PromoteSum))
	le.PutUint64(dst[120:], uint64(r.ResyncSum))
	le.PutUint64(dst[128:], uint64(r.WidthSum))
	le.PutUint64(dst[136:], uint64(r.WidthMax))
	le.PutUint64(dst[144:], uint64(r.OwnerSum))
	le.PutUint64(dst[152:], uint64(r.OwnerMax))
	le.PutUint64(dst[160:], uint64(r.AckedLost))
	le.PutUint64(dst[168:], r.payloadOff)
	le.PutUint32(dst[176:], r.payloadLen)
	le.PutUint32(dst[180:], r.payloadCRC)
	le.PutUint64(dst[184:], r.traceOff)
	le.PutUint32(dst[192:], r.traceLen)
	le.PutUint32(dst[196:], r.traceCRC)
	le.PutUint64(dst[200:], 0) // reserved
}

// decodeRow parses src[:RowSize]; name ids are resolved by the caller
// (the reader holds the names table).
func decodeRow(src []byte) (r Row, designID, workloadID, invariantID, modeID uint16) {
	_ = src[RowSize-1]
	r.Index = int64(le.Uint64(src[0:]))
	r.Seed = int64(le.Uint64(src[8:]))
	r.Commits = int64(le.Uint64(src[16:]))
	r.Torn = int64(le.Uint64(src[24:]))
	r.Dropped = int64(le.Uint64(src[32:]))
	r.Restarts = le.Uint32(src[40:])
	r.Mismatches = le.Uint32(src[44:])
	designID = le.Uint16(src[48:])
	workloadID = le.Uint16(src[50:])
	invariantID = le.Uint16(src[52:])
	r.Attempts = le.Uint16(src[54:])
	r.Kind = Kind(src[56])
	flags := src[57]
	r.MidRun = flags&flagMidRun != 0
	r.Panicked = flags&flagPanicked != 0
	r.TimedOut = flags&flagTimedOut != 0
	r.Infra = flags&flagInfra != 0
	r.HasAvail = flags&flagHasAvail != 0
	r.Complete = flags&flagComplete != 0
	r.Replicas = le.Uint16(src[58:])
	modeID = le.Uint16(src[60:])
	r.CommittedTx = le.Uint32(src[64:])
	r.RedoApplied = le.Uint32(src[68:])
	r.UndoApplied = le.Uint32(src[72:])
	r.Discarded = le.Uint32(src[76:])
	r.Quarantined = le.Uint32(src[80:])
	r.TotalRecords = le.Uint32(src[84:])
	r.AppliedWrites = le.Uint32(src[88:])
	r.Windows = le.Uint32(src[92:])
	r.Strikes = le.Uint32(src[96:])
	r.DetectSum = int64(le.Uint64(src[104:]))
	r.PromoteSum = int64(le.Uint64(src[112:]))
	r.ResyncSum = int64(le.Uint64(src[120:]))
	r.WidthSum = int64(le.Uint64(src[128:]))
	r.WidthMax = int64(le.Uint64(src[136:]))
	r.OwnerSum = int64(le.Uint64(src[144:]))
	r.OwnerMax = int64(le.Uint64(src[152:]))
	r.AckedLost = int64(le.Uint64(src[160:]))
	r.payloadOff = le.Uint64(src[168:])
	r.payloadLen = le.Uint32(src[176:])
	r.payloadCRC = le.Uint32(src[180:])
	r.traceOff = le.Uint64(src[184:])
	r.traceLen = le.Uint32(src[192:])
	r.traceCRC = le.Uint32(src[196:])
	return r, designID, workloadID, invariantID, modeID
}

// header is the finalized 96-byte file header.
type header struct {
	count      uint64
	payloadOff uint64
	payloadLen uint64
	namesOff   uint64
	namesLen   uint64
	indexOff   uint64
	indexLen   uint64
	payloadCRC uint32
}

func (h *header) encode() []byte {
	b := make([]byte, headerSize)
	copy(b[0:4], Magic)
	le.PutUint32(b[4:], Version)
	le.PutUint32(b[8:], RowSize)
	le.PutUint32(b[12:], 0) // flags, reserved
	le.PutUint64(b[16:], h.count)
	le.PutUint64(b[24:], h.payloadOff)
	le.PutUint64(b[32:], h.payloadLen)
	le.PutUint64(b[40:], h.namesOff)
	le.PutUint64(b[48:], h.namesLen)
	le.PutUint64(b[56:], h.indexOff)
	le.PutUint64(b[64:], h.indexLen)
	le.PutUint32(b[72:], h.payloadCRC)
	// bytes 76..92 reserved (zero)
	le.PutUint32(b[92:], crc32.ChecksumIEEE(b[:92]))
	return b
}

// placeholderHeader is what the writer stamps on a fresh temp segment:
// valid magic/version/row-size so tools can identify the file, but a
// zero header CRC, which Open rejects — an unsealed segment is never a
// valid store.
func placeholderHeader() []byte {
	b := make([]byte, headerSize)
	copy(b[0:4], Magic)
	le.PutUint32(b[4:], Version)
	le.PutUint32(b[8:], RowSize)
	return b
}

// parseHeader validates the fixed header fields and CRC.
func parseHeader(b []byte) (header, error) {
	var h header
	if err := checkMagic(b); err != nil {
		return h, err
	}
	if len(b) < headerSize {
		return h, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(b), headerSize)
	}
	if v := le.Uint32(b[4:]); v != Version {
		return h, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, Version)
	}
	if rs := le.Uint32(b[8:]); rs != RowSize {
		return h, fmt.Errorf("%w: row size %d (want %d)", ErrCorrupt, rs, RowSize)
	}
	want := le.Uint32(b[92:])
	if got := crc32.ChecksumIEEE(b[:92]); got != want {
		if want == 0 {
			return h, fmt.Errorf("%w: unsealed segment (placeholder header; the writer never sealed it)", ErrCorrupt)
		}
		return h, fmt.Errorf("%w: header CRC %#x != %#x", ErrCorrupt, got, want)
	}
	h.count = le.Uint64(b[16:])
	h.payloadOff = le.Uint64(b[24:])
	h.payloadLen = le.Uint64(b[32:])
	h.namesOff = le.Uint64(b[40:])
	h.namesLen = le.Uint64(b[48:])
	h.indexOff = le.Uint64(b[56:])
	h.indexLen = le.Uint64(b[64:])
	h.payloadCRC = le.Uint32(b[72:])
	return h, nil
}

// footer seals the file: its presence (with consistent lengths and
// CRCs) is what distinguishes a published store from a torn rename.
type footer struct {
	fileLen  uint64
	count    uint64
	indexCRC uint32
}

func (f *footer) encode() []byte {
	b := make([]byte, footerSize)
	copy(b[0:8], footerMagic)
	le.PutUint64(b[8:], f.fileLen)
	le.PutUint64(b[16:], f.count)
	le.PutUint32(b[24:], f.indexCRC)
	le.PutUint32(b[28:], crc32.ChecksumIEEE(b[:28]))
	return b
}

func parseFooter(b []byte) (footer, error) {
	var f footer
	if len(b) < footerSize {
		return f, fmt.Errorf("%w: missing footer", ErrCorrupt)
	}
	if string(b[0:8]) != footerMagic {
		return f, fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, b[0:8])
	}
	if want, got := le.Uint32(b[28:]), crc32.ChecksumIEEE(b[:28]); got != want {
		return f, fmt.Errorf("%w: footer CRC %#x != %#x", ErrCorrupt, got, want)
	}
	f.fileLen = le.Uint64(b[8:])
	f.count = le.Uint64(b[16:])
	f.indexCRC = le.Uint32(b[24:])
	return f, nil
}

// encodeNames serializes the interned string table:
// u32 count | { u16 len, bytes }* | u32 CRC.
func encodeNames(names []string) []byte {
	n := 8 // count + crc
	for _, s := range names {
		n += 2 + len(s)
	}
	b := make([]byte, 0, n)
	b = le.AppendUint32(b, uint32(len(names)))
	for _, s := range names {
		b = le.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func decodeNames(b []byte) ([]string, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: names section truncated (%d bytes)", ErrCorrupt, len(b))
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if want, got := le.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: names CRC %#x != %#x", ErrCorrupt, got, want)
	}
	count := le.Uint32(body)
	body = body[4:]
	names := make([]string, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: names section truncated at entry %d", ErrCorrupt, i)
		}
		n := int(le.Uint16(body))
		body = body[2:]
		if len(body) < n {
			return nil, fmt.Errorf("%w: name %d overruns the section", ErrCorrupt, i)
		}
		names = append(names, string(body[:n]))
		body = body[n:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the names table", ErrCorrupt, len(body))
	}
	return names, nil
}
