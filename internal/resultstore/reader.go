package resultstore

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Store is a sealed SRS1 file opened read-only via mmap. Opening
// validates the header, footer, section geometry, names table and
// index CRC — everything needed to trust the index — in O(index)
// time; payload bytes are only read (and CRC-checked per record) when
// a caller actually asks for them, so filtering a million-campaign
// store never touches a payload.
type Store struct {
	data    []byte
	unmap   func() error
	hdr     header
	names   []string
	rowsRaw []byte
}

// Open maps the store at path and validates its seals. Any structural
// problem — truncation, bad CRC, an unsealed temp segment — returns an
// error wrapping ErrCorrupt; a file that is not SRS1 at all wraps
// ErrNotStore.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	data, unmap, err := mmapFile(f, st.Size())
	// The mapping outlives the descriptor either way.
	f.Close()
	if err != nil {
		return nil, err
	}
	s, err := openBytes(data)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.unmap = unmap
	return s, nil
}

// openBytes validates an in-memory image (shared by Open and the
// fuzzer, which must exercise exactly the production checks).
func openBytes(data []byte) (*Store, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("%w: %d bytes cannot hold header and footer", ErrCorrupt, len(data))
	}
	ftr, err := parseFooter(data[len(data)-footerSize:])
	if err != nil {
		return nil, err
	}
	if ftr.fileLen != uint64(len(data)) {
		return nil, fmt.Errorf("%w: footer says %d bytes, file has %d", ErrCorrupt, ftr.fileLen, len(data))
	}
	if ftr.count != h.count {
		return nil, fmt.Errorf("%w: footer count %d != header count %d", ErrCorrupt, ftr.count, h.count)
	}
	// Section geometry must tile the file exactly.
	if h.payloadOff != headerSize ||
		h.namesOff != h.payloadOff+h.payloadLen ||
		h.indexOff != h.namesOff+h.namesLen ||
		h.indexOff+h.indexLen+footerSize != uint64(len(data)) {
		return nil, fmt.Errorf("%w: section offsets do not tile the file", ErrCorrupt)
	}
	// Derive from indexLen (already bounded by the file size) rather
	// than multiplying the untrusted count, which could overflow.
	if h.indexLen%RowSize != 0 || h.indexLen/RowSize != h.count {
		return nil, fmt.Errorf("%w: index length %d != %d rows × %d", ErrCorrupt, h.indexLen, h.count, RowSize)
	}
	names, err := decodeNames(data[h.namesOff : h.namesOff+h.namesLen])
	if err != nil {
		return nil, err
	}
	rows := data[h.indexOff : h.indexOff+h.indexLen]
	if got := crc32.ChecksumIEEE(rows); got != ftr.indexCRC {
		return nil, fmt.Errorf("%w: index CRC %#x != %#x", ErrCorrupt, got, ftr.indexCRC)
	}
	return &Store{data: data, hdr: h, names: names, rowsRaw: rows}, nil
}

// Close unmaps the store.
func (s *Store) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	s.data, s.rowsRaw = nil, nil
	return u()
}

// Count returns the number of records (index rows) in the store.
func (s *Store) Count() int { return int(s.hdr.count) }

func (s *Store) name(id uint16) string {
	if int(id) < len(s.names) {
		return s.names[id]
	}
	return fmt.Sprintf("name#%d", id) // ids are writer-interned; out of range means a hostile edit survived the CRCs
}

// Row decodes index row i. Panics on out-of-range i, like a slice.
func (s *Store) Row(i int) Row {
	r, d, w, inv, m := decodeRow(s.rowsRaw[i*RowSize:])
	r.Design = s.name(d)
	r.Workload = s.name(w)
	r.Invariant = s.name(inv)
	r.Mode = s.name(m)
	return r
}

// Payload returns record i's payload bytes after verifying the
// per-record CRC. The slice aliases the mapping: treat it as
// read-only and do not retain it past Close.
func (s *Store) Payload(i int) ([]byte, error) {
	r, _, _, _, _ := decodeRow(s.rowsRaw[i*RowSize:])
	return s.section(r.payloadOff, r.payloadLen, r.payloadCRC, "payload", i)
}

// Trace returns record i's decompressed trace blob, or nil when none
// is attached.
func (s *Store) Trace(i int) ([]byte, error) {
	r, _, _, _, _ := decodeRow(s.rowsRaw[i*RowSize:])
	if r.traceLen == 0 {
		return nil, nil
	}
	comp, err := s.section(r.traceOff, r.traceLen, r.traceCRC, "trace", i)
	if err != nil {
		return nil, err
	}
	blob, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
	if err != nil {
		return nil, fmt.Errorf("%w: record %d trace: %v", ErrCorrupt, i, err)
	}
	return blob, nil
}

func (s *Store) section(off uint64, n, crc uint32, what string, i int) ([]byte, error) {
	end := off + uint64(n)
	if off < headerSize || end > s.hdr.payloadOff+s.hdr.payloadLen || end < off {
		return nil, fmt.Errorf("%w: record %d %s [%d,%d) escapes the payload section", ErrCorrupt, i, what, off, end)
	}
	b := s.data[off:end]
	if got := crc32.ChecksumIEEE(b); got != crc {
		return nil, fmt.Errorf("%w: record %d %s CRC %#x != %#x", ErrCorrupt, i, what, got, crc)
	}
	return b, nil
}

// Verify re-checks the whole payload section against the header CRC —
// the expensive full-file integrity pass Open deliberately skips.
func (s *Store) Verify() error {
	b := s.data[s.hdr.payloadOff : s.hdr.payloadOff+s.hdr.payloadLen]
	if got := crc32.ChecksumIEEE(b); got != s.hdr.payloadCRC {
		return fmt.Errorf("%w: payload section CRC %#x != %#x", ErrCorrupt, got, s.hdr.payloadCRC)
	}
	return nil
}

// Filter selects index rows without touching payloads. Zero values
// match everything.
type Filter struct {
	Design     string // exact design name
	Workload   string // exact workload name
	FailedOnly bool   // only rows with a durability failure on record
}

// Match reports whether the row passes the filter.
func (f Filter) Match(r Row) bool {
	if f.Design != "" && r.Design != f.Design {
		return false
	}
	if f.Workload != "" && r.Workload != f.Workload {
		return false
	}
	if f.FailedOnly && !r.Failed() {
		return false
	}
	return true
}

// Scan visits matching rows in append order until fn returns false.
// This is the scan-fast path: a linear walk over the dense index, no
// payload reads, no allocation beyond the decoded row.
func (s *Store) Scan(f Filter, fn func(i int, r Row) bool) {
	for i := 0; i < s.Count(); i++ {
		r := s.Row(i)
		if !f.Match(r) {
			continue
		}
		if !fn(i, r) {
			return
		}
	}
}
