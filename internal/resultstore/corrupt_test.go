package resultstore

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// sealedImage builds a sealed store (with one trace) and returns its
// raw bytes plus the parsed header for boundary arithmetic.
func sealedImage(t *testing.T) ([]byte, header) {
	t.Helper()
	path := buildStore(t, 25, 400, map[int][]byte{4: []byte("a trace blob")})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, h
}

// TestTruncationExhaustive asserts every proper prefix of a sealed
// store is rejected: a torn copy or a torn rename can never be
// silently misread as a smaller valid store.
func TestTruncationExhaustive(t *testing.T) {
	data, _ := sealedImage(t)
	for cut := 0; cut < len(data); cut++ {
		if _, err := openBytes(data[:cut]); err == nil {
			t.Fatalf("openBytes accepted a %d/%d-byte truncation", cut, len(data))
		}
	}
}

// TestTruncationBoundaries spot-checks the named section boundaries
// with ErrCorrupt specifically (the exhaustive test only demands *an*
// error).
func TestTruncationBoundaries(t *testing.T) {
	data, h := sealedImage(t)
	cuts := map[string]int{
		"empty":            0,
		"mid-header":       headerSize / 2,
		"header-only":      headerSize,
		"mid-payload":      int(h.payloadOff) + int(h.payloadLen)/2,
		"payload-boundary": int(h.namesOff),
		"mid-names":        int(h.namesOff) + int(h.namesLen)/2,
		"names-boundary":   int(h.indexOff),
		"mid-record-row":   int(h.indexOff) + RowSize/2,
		"index-boundary":   int(h.indexOff) + int(h.indexLen),
		"mid-footer":       len(data) - footerSize/2,
		"last-byte":        len(data) - 1,
	}
	for name, cut := range cuts {
		_, err := openBytes(data[:cut])
		if err == nil {
			t.Errorf("%s (cut %d): accepted", name, cut)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (cut %d): error %v does not wrap ErrCorrupt", name, cut, err)
		}
	}
}

// TestBitFlipExhaustive flips every byte of a sealed store and asserts
// the damage is always detectable: either Open rejects the file, or —
// for the lazily-validated payload section — Verify and the per-record
// CRC catch it.
func TestBitFlipExhaustive(t *testing.T) {
	data, h := sealedImage(t)
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		copy(mut, data)
		mut[i] ^= 0x40
		st, err := openBytes(mut)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: error %v does not wrap ErrCorrupt", i, err)
			}
			continue
		}
		// Open tolerated the flip, so it must be inside the payload
		// section (whose bytes are validated lazily) — and Verify must
		// catch it.
		if uint64(i) < h.payloadOff || uint64(i) >= h.payloadOff+h.payloadLen {
			t.Fatalf("flip at %d (outside payload section) went undetected by Open", i)
		}
		if st.Verify() == nil {
			t.Fatalf("flip at %d: Verify passed on damaged payload section", i)
		}
	}
}

// TestBitFlipPayloadRecord flips a byte inside one record's payload
// and asserts exactly that record's read fails, with ErrCorrupt.
func TestBitFlipPayloadRecord(t *testing.T) {
	path := buildStore(t, 10, 0, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	// Locate record 3's payload via its row and damage one byte.
	r, _, _, _, _ := decodeRow(st.rowsRaw[3*RowSize:])
	data[r.payloadOff+uint64(r.payloadLen)/2] ^= 0x01
	st2, err := openBytes(data)
	if err != nil {
		t.Fatalf("lazy open rejected a payload-only flip: %v", err)
	}
	if _, err := st2.Payload(3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Payload(3) = %v, want ErrCorrupt", err)
	}
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue
		}
		if _, err := st2.Payload(i); err != nil {
			t.Fatalf("Payload(%d) collateral damage: %v", i, err)
		}
	}
}

// unsealedImage writes n records, one chunk each (chunk size 1 forces
// a flush per append), and returns the temp-segment bytes.
func unsealedImage(t *testing.T, n int) ([]byte, [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.srs")
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetChunkBytes(1)
	var payloads [][]byte
	for i := 0; i < n; i++ {
		r, p := testRow(i)
		if err := w.Append(r, p); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	data, err := os.ReadFile(w.TempPath())
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	return data, payloads
}

// chunkEnds scans an unsealed segment and returns the file offset just
// past each chunk.
func chunkEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := headerSize
	for off+chunkHdrSize <= len(data) && le.Uint32(data[off:]) == chunkMagic {
		off += chunkHdrSize + int(le.Uint32(data[off+8:]))
		ends = append(ends, off)
	}
	return ends
}

// TestRecoverTornTailMatrix truncates an interrupted segment at every
// byte and asserts Recover returns exactly the chunks that are wholly
// present — never an error, never a partial record, never a misread.
func TestRecoverTornTailMatrix(t *testing.T) {
	data, payloads := unsealedImage(t, 12)
	ends := chunkEnds(t, data)
	if len(ends) != 12 {
		t.Fatalf("expected 12 single-record chunks, scanned %d", len(ends))
	}
	sealedThrough := func(cut int) int {
		n := 0
		for _, e := range ends {
			if e <= cut {
				n++
			}
		}
		return n
	}
	for cut := headerSize; cut <= len(data); cut++ {
		got, err := recoverBytes(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := sealedThrough(cut)
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut %d: record %d not byte-exact", cut, i)
			}
		}
	}
}

// TestRecoverBitFlippedChunk damages one chunk and asserts recovery
// stops there, returning the intact prefix.
func TestRecoverBitFlippedChunk(t *testing.T) {
	data, payloads := unsealedImage(t, 12)
	ends := chunkEnds(t, data)
	// Flip a byte inside chunk 5's area (after its header).
	target := ends[4] + chunkHdrSize + 3
	data[target] ^= 0x80
	got, err := recoverBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("recovered %d records past a flipped chunk, want 5", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d not byte-exact", i)
		}
	}
}

// TestRecoverRejectsForeignFile asserts Recover and Open reject
// not-an-SRS1-segment inputs by header with ErrNotStore (which is also
// ErrCorrupt) rather than returning zero records.
func TestRecoverRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"jsonl": []byte(`{"index":0}` + "\n"),
		"short": []byte("SRS"),
		"zeros": make([]byte, 4096),
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(p); !errors.Is(err, ErrNotStore) || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Recover = %v, want ErrNotStore wrapping ErrCorrupt", name, err)
		}
		if _, err := Open(p); !errors.Is(err, ErrNotStore) {
			t.Errorf("%s: Open = %v, want ErrNotStore", name, err)
		}
	}
}

// TestDamagedStoreIsNotForeign pins the other side of the header
// check: a store whose magic survived is damaged, not foreign, so
// callers still try to recover it.
func TestDamagedStoreIsNotForeign(t *testing.T) {
	data, _ := sealedImage(t)
	for name, img := range map[string][]byte{
		"truncated":  data[:len(data)/2],
		"magic only": data[:len(Magic)],
	} {
		if _, err := openBytes(img); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotStore) {
			t.Errorf("%s: openBytes = %v, want ErrCorrupt but not ErrNotStore", name, err)
		}
	}
}

// TestNewWriterRefusesForeignFile asserts the writer never replaces a
// file that is not a store (Seal's rename would destroy it), while a
// sealed store at the path is replaced as before.
func TestNewWriterRefusesForeignFile(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "sweep.jsonl")
	legacy := []byte(`{"index":0}` + "\n")
	if err := os.WriteFile(foreign, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(foreign); !errors.Is(err, ErrNotStore) {
		t.Fatalf("NewWriter over a JSONL file = %v, want ErrNotStore", err)
	}
	if got, _ := os.ReadFile(foreign); !bytes.Equal(got, legacy) {
		t.Error("refused writer still changed the file")
	}
	if _, err := os.Stat(foreign + ".tmp"); !os.IsNotExist(err) {
		t.Error("refused writer left a temp segment")
	}

	store := filepath.Join(dir, "sweep.srs")
	for round := 0; round < 2; round++ {
		w, err := NewWriter(store)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := w.Append(Row{Index: int64(round)}, []byte("{}")); err != nil {
			t.Fatal(err)
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Count() != 1 || st.Row(0).Index != 1 {
		t.Errorf("second writer did not replace the sealed store: count %d", st.Count())
	}
}

// TestCraftedCountOverflow rebuilds the historic overflow attack: a
// header whose count*RowSize wraps to match indexLen must be rejected,
// not scanned past the mapping.
func TestCraftedCountOverflow(t *testing.T) {
	data, h := sealedImage(t)
	mut := append([]byte(nil), data...)
	// count' = count + 2^64/RowSize-ish so count'*RowSize wraps; easier:
	// pick count' = count + (1<<60) where (1<<60)*208 mod 2^64 == 0 is
	// false, so craft the exact wrap: count' such that count'*208 ≡
	// indexLen (mod 2^64). 208 = 16*13; 2^64/16 = 2^60, and 13 divides
	// into the odd part, so count' = count + 13<<60 wraps exactly.
	crafted := h.count + 13<<60
	le.PutUint64(mut[16:], crafted)
	// Re-seal the header CRC, and patch the footer count to match so
	// only the index-length consistency check can reject it.
	le.PutUint32(mut[92:], crc32.ChecksumIEEE(mut[:92]))
	foot := mut[len(mut)-footerSize:]
	le.PutUint64(foot[16:], crafted)
	le.PutUint32(foot[28:], crc32.ChecksumIEEE(foot[:28]))
	if crafted*RowSize != h.count*RowSize {
		t.Fatalf("test arithmetic wrong: %d", crafted*RowSize)
	}
	if _, err := openBytes(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("crafted count accepted: %v", err)
	}
}
