package resultstore

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// DefaultChunkBytes is the pending-record buffer size that triggers a
// chunk flush. One flush is one write syscall, so the fleet's write
// path amortizes to well under a syscall per record; a hard kill loses
// at most one unflushed chunk, which Recover detects and resume
// re-runs.
const DefaultChunkBytes = 64 << 10

// Writer streams campaign records into <path>.tmp and publishes the
// sealed store at path by atomic rename. It is strictly single-writer
// and append-only: records accumulate in CRC-sealed chunks, index rows
// are kept in memory, and Seal writes names + index + footer, rewrites
// the finalized header, fsyncs, and renames. Abandoning a Writer (or
// dying) leaves only the temp segment, whose sealed chunk prefix
// Recover extracts byte-exactly.
type Writer struct {
	path   string
	tmp    *os.File
	off    uint64 // file offset of the next chunk
	buf    []byte // pending records area of the open chunk
	rows   []Row
	rowIDs [][4]uint16 // interned (design, workload, invariant, mode) per row
	latest map[int64]int
	names  map[string]uint16
	list   []string

	chunkBytes int
	payloadCRC uint32 // running CRC over the payload section bytes
	sealed     bool
	err        error // sticky I/O failure
}

// NewWriter creates the temp segment for a store at path, truncating
// any prior temp segment (read it with Recover first if resuming).
// Seal replaces a store already at path, so a file there that is not
// a store is refused with ErrNotStore rather than clobbered.
func NewWriter(path string) (*Writer, error) {
	if f, err := os.Open(path); err == nil {
		head := make([]byte, len(Magic))
		n, _ := io.ReadFull(f, head) // a short read is judged by its bytes
		f.Close()
		if err := checkMagic(head[:n]); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(placeholderHeader()); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{
		path:       path,
		tmp:        f,
		off:        headerSize,
		latest:     make(map[int64]int),
		names:      make(map[string]uint16),
		chunkBytes: DefaultChunkBytes,
	}
	w.intern("") // id 0 is always the empty string
	return w, nil
}

// SetChunkBytes overrides the flush threshold (testing small chunks).
func (w *Writer) SetChunkBytes(n int) {
	if n > 0 {
		w.chunkBytes = n
	}
}

// TempPath returns the segment the writer streams into before Seal.
func (w *Writer) TempPath() string { return w.path + ".tmp" }

func (w *Writer) intern(s string) uint16 {
	if id, ok := w.names[s]; ok {
		return id
	}
	if len(w.list) > 0xFFFF {
		// The table is full; alias to the reserved empty string rather
		// than corrupting ids. Unreachable for design/workload/mode
		// vocabularies, which are a handful of strings.
		return 0
	}
	id := uint16(len(w.list))
	w.names[s] = id
	w.list = append(w.list, s)
	return id
}

// Append adds one record: its fixed index row plus the variable-length
// payload (conventionally the record's JSON encoding). The writer
// assigns the payload location and CRC; any location fields on row are
// ignored. Appends are buffered; see Flush.
func (w *Writer) Append(row Row, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.sealed {
		return fmt.Errorf("resultstore: append to sealed store %s", w.path)
	}
	row.payloadOff = w.off + chunkHdrSize + uint64(len(w.buf)) + 4
	row.payloadLen = uint32(len(payload))
	row.payloadCRC = crc32.ChecksumIEEE(payload)
	row.traceOff, row.traceLen, row.traceCRC = 0, 0, 0
	w.buf = le.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = append(w.buf, payload...)
	ids := [4]uint16{w.intern(row.Design), w.intern(row.Workload), w.intern(row.Invariant), w.intern(row.Mode)}
	w.latest[row.Index] = len(w.rows)
	w.rows = append(w.rows, row)
	w.rowIDs = append(w.rowIDs, ids)
	if len(w.buf) >= w.chunkBytes {
		return w.Flush()
	}
	return nil
}

// Flush seals the pending records into one chunk and writes it out.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	hdr := make([]byte, chunkHdrSize)
	le.PutUint32(hdr[0:], chunkMagic)
	le.PutUint32(hdr[4:], uint32(w.pendingCount()))
	le.PutUint32(hdr[8:], uint32(len(w.buf)))
	le.PutUint32(hdr[12:], crc32.ChecksumIEEE(w.buf))
	if err := w.write(hdr); err != nil {
		return err
	}
	if err := w.write(w.buf); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// pendingCount walks the buffered frames; chunk counts are small, so
// re-deriving beats carrying extra state.
func (w *Writer) pendingCount() int {
	n, b := 0, w.buf
	for len(b) >= 4 {
		l := int(le.Uint32(b))
		if 4+l > len(b) {
			break // unreachable: frames are writer-built
		}
		b = b[4+l:]
		n++
	}
	return n
}

func (w *Writer) write(b []byte) error {
	if _, err := w.tmp.Write(b); err != nil {
		w.err = err
		return err
	}
	w.payloadCRC = crc32.Update(w.payloadCRC, crc32.IEEETable, b)
	w.off += uint64(len(b))
	return nil
}

// AttachTrace compresses blob (flate) and attaches it to the latest
// appended row for the campaign index. Traces ride the payload stream
// as their own sealed chunks; they are debug artifacts, so Recover
// skips them and an interrupted writer only ever loses traces, never
// records.
func (w *Writer) AttachTrace(index int64, blob []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.sealed {
		return fmt.Errorf("resultstore: attach trace to sealed store %s", w.path)
	}
	pos, ok := w.latest[index]
	if !ok {
		return fmt.Errorf("resultstore: no record for campaign %d to attach a trace to", index)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := fw.Write(blob); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	hdr := make([]byte, traceHdrSize)
	le.PutUint32(hdr[0:], traceMagic)
	le.PutUint64(hdr[8:], uint64(index))
	le.PutUint32(hdr[16:], uint32(comp.Len()))
	le.PutUint32(hdr[20:], crc32.ChecksumIEEE(comp.Bytes()))
	off := w.off + traceHdrSize
	if err := w.write(hdr); err != nil {
		return err
	}
	if err := w.write(comp.Bytes()); err != nil {
		return err
	}
	w.rows[pos].traceOff = off
	w.rows[pos].traceLen = uint32(comp.Len())
	w.rows[pos].traceCRC = crc32.ChecksumIEEE(comp.Bytes())
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() int { return len(w.rows) }

// Seal publishes the store: flush the open chunk, append names, index
// and footer, rewrite the finalized header, fsync, and atomically
// rename the temp segment to the final path. After Seal the writer is
// closed; further appends fail.
func (w *Writer) Seal() error {
	if w.sealed {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var h header
	h.count = uint64(len(w.rows))
	h.payloadOff = headerSize
	h.payloadLen = w.off - headerSize
	h.payloadCRC = w.payloadCRC

	h.namesOff = w.off
	names := encodeNames(w.list)
	h.namesLen = uint64(len(names))
	if _, err := w.tmp.Write(names); err != nil {
		w.err = err
		return err
	}

	h.indexOff = h.namesOff + h.namesLen
	h.indexLen = uint64(len(w.rows)) * RowSize
	rows := make([]byte, h.indexLen)
	for i := range w.rows {
		ids := w.rowIDs[i]
		encodeRow(rows[i*RowSize:], &w.rows[i], ids[0], ids[1], ids[2], ids[3])
	}
	if _, err := w.tmp.Write(rows); err != nil {
		w.err = err
		return err
	}

	f := footer{
		fileLen:  h.indexOff + h.indexLen + footerSize,
		count:    h.count,
		indexCRC: crc32.ChecksumIEEE(rows),
	}
	if _, err := w.tmp.Write(f.encode()); err != nil {
		w.err = err
		return err
	}
	if _, err := w.tmp.WriteAt(h.encode(), 0); err != nil {
		w.err = err
		return err
	}
	if err := w.tmp.Sync(); err != nil {
		w.err = err
		return err
	}
	if err := w.tmp.Close(); err != nil {
		w.err = err
		return err
	}
	if err := os.Rename(w.TempPath(), w.path); err != nil {
		w.err = err
		return err
	}
	syncDir(w.path)
	w.sealed = true
	return nil
}

// Abort discards the temp segment without publishing anything.
func (w *Writer) Abort() error {
	if w.sealed {
		return nil
	}
	w.sealed = true
	w.tmp.Close()
	return os.Remove(w.TempPath())
}

// syncDir fsyncs the directory so the rename itself is durable;
// best-effort (some filesystems refuse directory fsync).
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
