package logging

import (
	"testing"
	"testing/quick"

	"silo/internal/mem"
	"silo/internal/pm"
)

func TestImageSizes(t *testing.T) {
	if UndoBytes != 18 {
		t.Errorf("undo image = %dB, paper says 18B", UndoBytes)
	}
	if UndoRedoBytes != 26 {
		t.Errorf("undo+redo image = %dB, paper says 26B", UndoRedoBytes)
	}
	if OnChipEntryBytes != 34 {
		t.Errorf("on-chip entry = %dB, paper says 26+8", OnChipEntryBytes)
	}
	if DefaultBufferEntries*OnChipEntryBytes != 680 {
		t.Errorf("log buffer = %dB/core, paper says 680B",
			DefaultBufferEntries*OnChipEntryBytes)
	}
}

func TestImageEncodeDecodeRoundtrip(t *testing.T) {
	images := []Image{
		{Kind: ImageUndo, TID: 3, TxID: 500, Addr: 0x123456789AB8, Data: 0xCAFE},
		{Kind: ImageRedo, FlushBit: true, TID: 255, TxID: 65535, Addr: mem.AddrMask48 &^ 7, Data: ^mem.Word(0)},
		{Kind: ImageCommit, TID: 7, TxID: 42},
		{Kind: ImageUndoRedo, TID: 1, TxID: 2, Addr: 0x1000, Data: 1, Data2: 2},
	}
	var buf [UndoRedoBytes]byte
	for _, im := range images {
		n := im.Encode(buf[:])
		if n != im.Size() {
			t.Errorf("%v: encoded %dB, Size says %d", im.Kind, n, im.Size())
		}
		got, n2, ok := DecodeImage(buf[:])
		if !ok || n2 != n {
			t.Fatalf("%v: decode failed (ok=%v n=%d)", im.Kind, ok, n2)
		}
		want := im
		if want.Kind == ImageCommit {
			want.Addr, want.Data, want.Data2 = 0, 0, 0
		}
		if want.Kind == ImageUndo || want.Kind == ImageRedo {
			want.Data2 = 0
		}
		if got != want {
			t.Errorf("roundtrip: got %+v, want %+v", got, want)
		}
	}
}

func TestDecodeInvalid(t *testing.T) {
	if _, _, ok := DecodeImage(make([]byte, 32)); ok {
		t.Error("decoded an all-zero record")
	}
	if _, _, ok := DecodeImage([]byte{0x08}); ok {
		t.Error("decoded a truncated record")
	}
}

func TestImageEncodeProperty(t *testing.T) {
	f := func(kindRaw uint8, flush bool, tid uint8, txid uint16, addr uint64, d1, d2 uint64) bool {
		im := Image{
			Kind:     ImageKind(kindRaw % 4),
			FlushBit: flush,
			TID:      tid,
			TxID:     txid,
			Addr:     mem.Addr(addr) & mem.AddrMask48,
			Data:     mem.Word(d1),
			Data2:    mem.Word(d2),
		}
		var buf [UndoRedoBytes]byte
		n := im.Encode(buf[:])
		got, n2, ok := DecodeImage(buf[:])
		if !ok || n != n2 {
			return false
		}
		if got.Kind != im.Kind || got.FlushBit != im.FlushBit ||
			got.TID != im.TID || got.TxID != im.TxID {
			return false
		}
		if im.Kind == ImageCommit {
			return true
		}
		if got.Addr != im.Addr || got.Data != im.Data {
			return false
		}
		return im.Kind != ImageUndoRedo || got.Data2 == im.Data2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntryImages(t *testing.T) {
	e := Entry{FlushBit: true, TID: 2, TxID: 9, Addr: 0x800, Old: 10, New: 20}
	u := e.UndoImage()
	if u.Kind != ImageUndo || u.Data != 10 || !u.FlushBit || u.Addr != 0x800 {
		t.Errorf("undo image wrong: %+v", u)
	}
	r := e.RedoImage()
	if r.Kind != ImageRedo || r.Data != 20 {
		t.Errorf("redo image wrong: %+v", r)
	}
	c := CommitImage(2, 9)
	if c.Kind != ImageCommit || c.TID != 2 || c.TxID != 9 {
		t.Errorf("commit image wrong: %+v", c)
	}
	if e.String() == "" || ImageUndoRedo.String() != "undo+redo" {
		t.Error("stringers broken")
	}
}

func TestBufferAppendAndMerge(t *testing.T) {
	b := NewBuffer(4)
	e := Entry{TID: 1, TxID: 1, Addr: 64, Old: 1, New: 2}
	if merged := b.Append(e); merged {
		t.Error("first append reported merged")
	}
	// Same word: merge keeps oldest old, newest new.
	if merged := b.Append(Entry{TID: 1, TxID: 1, Addr: 64, Old: 2, New: 3}); !merged {
		t.Error("same-word append did not merge")
	}
	if b.Len() != 1 {
		t.Fatalf("len = %d, want 1", b.Len())
	}
	got := b.Entries()[0]
	if got.Old != 1 || got.New != 3 {
		t.Errorf("merged entry old/new = %d/%d, want 1/3", got.Old, got.New)
	}
	// Sub-word addresses map to the same word.
	if merged := b.Append(Entry{Addr: 68, Old: 3, New: 4}); !merged {
		t.Error("address 68 should merge into word 64")
	}
}

func TestBufferCapacityAndEvict(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 3; i++ {
		b.Append(Entry{Addr: mem.Addr(i * 8), New: mem.Word(i)})
	}
	if !b.Full() {
		t.Fatal("buffer should be full")
	}
	scratch := make([]Entry, 1, 4)
	scratch[0].Addr = 99
	ev := b.EvictOldest(scratch, 2)
	if len(ev) != 3 || ev[0].Addr != 99 || ev[1].Addr != 0 || ev[2].Addr != 8 {
		t.Errorf("evicted %v, want oldest two appended after the caller's entry", ev)
	}
	if &ev[0] != &scratch[0] {
		t.Error("EvictOldest reallocated caller storage with room to spare")
	}
	if b.Len() != 1 || b.Entries()[0].Addr != 16 {
		t.Errorf("remaining entry wrong")
	}
	// Evicting more than available returns what exists.
	if got := b.EvictOldest(nil, 10); len(got) != 1 {
		t.Errorf("over-evict returned %d entries", len(got))
	}
}

func TestBufferAppendFullPanics(t *testing.T) {
	b := NewBuffer(1)
	b.Append(Entry{Addr: 0})
	defer func() {
		if recover() == nil {
			t.Error("append to full buffer did not panic")
		}
	}()
	b.Append(Entry{Addr: 8})
}

func TestBufferPushSkipsMerge(t *testing.T) {
	b := NewBuffer(4)
	b.Push(Entry{Addr: 0, New: 1})
	b.Push(Entry{Addr: 0, New: 2})
	if b.Len() != 2 {
		t.Errorf("push merged: len=%d", b.Len())
	}
}

func TestBufferMatchLine(t *testing.T) {
	b := NewBuffer(8)
	b.Append(Entry{Addr: 64})
	b.Append(Entry{Addr: 72})
	b.Append(Entry{Addr: 128})
	n := 0
	b.MatchLine(70, func(e *Entry) {
		e.FlushBit = true
		n++
	})
	if n != 2 {
		t.Errorf("MatchLine hit %d entries, want 2", n)
	}
	if !b.Entry(0).FlushBit || !b.Entry(1).FlushBit || b.Entry(2).FlushBit {
		t.Error("flush bits set on wrong entries")
	}
}

func TestBufferReset(t *testing.T) {
	b := NewBuffer(2)
	b.Append(Entry{Addr: 0})
	b.Reset()
	if b.Len() != 0 || b.Full() {
		t.Error("reset did not empty buffer")
	}
	if b.Bytes() != 0 {
		t.Error("bytes after reset")
	}
	if b.Cap() != 2 {
		t.Error("capacity changed by reset")
	}
}

func newRegion(threads int) (*pm.Device, *RegionWriter) {
	dev := pm.New(pm.DefaultConfig())
	return dev, NewRegionWriter(dev, threads)
}

func TestRegionAppendScan(t *testing.T) {
	_, w := newRegion(2)
	images := []Image{
		{Kind: ImageUndo, TID: 0, TxID: 1, Addr: 0x100, Data: 11},
		{Kind: ImageRedo, TID: 0, TxID: 1, Addr: 0x108, Data: 22, FlushBit: false},
		CommitImage(0, 1),
	}
	w.Append(0, 0, images)
	got := w.Scan(0)
	if len(got) != 3 {
		t.Fatalf("scanned %d records, want 3", len(got))
	}
	if got[0].Data != 11 || got[1].Data != 22 || got[2].Kind != ImageCommit {
		t.Errorf("scan contents wrong: %+v", got)
	}
	// Thread 1 untouched.
	if len(w.Scan(1)) != 0 {
		t.Error("thread 1 has phantom records")
	}
}

func TestRegionTruncate(t *testing.T) {
	_, w := newRegion(1)
	w.Append(0, 0, []Image{{Kind: ImageUndo, Addr: 8, Data: 5}})
	if w.Used(0) == 0 {
		t.Fatal("nothing appended")
	}
	w.Truncate(0)
	if w.Used(0) != 0 {
		t.Error("head not reset")
	}
	if len(w.Scan(0)) != 0 {
		t.Error("records visible after truncate")
	}
	// Appending after truncate reuses the area cleanly.
	w.Append(0, 0, []Image{{Kind: ImageRedo, Addr: 16, Data: 6}})
	got := w.Scan(0)
	if len(got) != 1 || got[0].Data != 6 {
		t.Errorf("post-truncate scan wrong: %+v", got)
	}
}

func TestRegionAppendAtCrash(t *testing.T) {
	dev, w := newRegion(1)
	before := dev.Stats().WPQWrites
	w.AppendAtCrash(0, []Image{{Kind: ImageUndo, Addr: 8, Data: 5}})
	if dev.Stats().WPQWrites != before {
		t.Error("crash append counted as run traffic")
	}
	if len(w.Scan(0)) != 1 {
		t.Error("crash append not durable")
	}
}

func TestRegionBatchedAppendIsOneWrite(t *testing.T) {
	dev, w := newRegion(1)
	batch := make([]Image, 14)
	for i := range batch {
		batch[i] = Image{Kind: ImageUndo, FlushBit: true, Addr: mem.Addr(i * 8), Data: mem.Word(i)}
	}
	w.Append(0, 0, batch)
	if got := dev.Stats().WPQWrites; got != 1 {
		t.Errorf("batched append used %d WPQ writes, want 1 (§III-F)", got)
	}
	if got := w.ImagesWritten; got != 14 {
		t.Errorf("ImagesWritten = %d", got)
	}
	if got := w.BytesWritten; got != 14*(UndoBytes+SealBytes) {
		t.Errorf("BytesWritten = %d, want %d (18B image + 3B on-media seal)", got, 14*(UndoBytes+SealBytes))
	}
	if got := len(w.Scan(0)); got != 14 {
		t.Errorf("scanned %d, want 14", got)
	}
}

func TestRegionScanAll(t *testing.T) {
	_, w := newRegion(3)
	w.Append(0, 1, []Image{CommitImage(1, 5)})
	all := w.ScanAll()
	if len(all) != 3 || len(all[1]) != 1 || len(all[0]) != 0 {
		t.Errorf("ScanAll shape wrong: %v", all)
	}
}

// TestBufferMergeClearsFlushBit is the regression test for a protocol
// subtlety the exhaustive checker (core.TestSiloProtocolExhaustive)
// surfaced: after a cacheline eviction sets an entry's flush-bit, a later
// store to the same word merges into that entry — and must clear the
// flush-bit, or the post-eviction value would never be flushed at commit
// nor crash-flushed as redo, losing a committed update.
func TestBufferMergeClearsFlushBit(t *testing.T) {
	b := NewBuffer(4)
	b.Append(Entry{Addr: 64, Old: 0, New: 1})
	b.Entry(0).FlushBit = true // cacheline evicted (§III-D)
	b.Append(Entry{Addr: 64, Old: 1, New: 2})
	if b.Entry(0).FlushBit {
		t.Fatal("flush-bit survived a merge; the merged new data would be lost")
	}
	if b.Entry(0).New != 2 || b.Entry(0).Old != 0 {
		t.Error("merge values wrong")
	}
}

func TestSealUnsealRoundtrip(t *testing.T) {
	images := []Image{
		{Kind: ImageUndo, TID: 3, TxID: 500, Addr: 0x123456789AB8, Data: 0xCAFE},
		{Kind: ImageRedo, FlushBit: true, TID: 255, TxID: 65535, Addr: mem.AddrMask48 &^ 7, Data: ^mem.Word(0)},
		{Kind: ImageCommit, TID: 7, TxID: 42},
		{Kind: ImageUndoRedo, TID: 1, TxID: 2, Addr: 0x1000, Data: 1, Data2: 2},
	}
	var buf [MaxSealedBytes]byte
	for seq := 0; seq < 256; seq += 51 {
		for _, im := range images {
			n := im.Seal(buf[:], uint8(seq))
			if n != im.Size()+SealBytes {
				t.Fatalf("%v: sealed %dB, want %d", im.Kind, n, im.Size()+SealBytes)
			}
			got, n2, st := UnsealImage(buf[:n], uint8(seq))
			if st != SealOK || n2 != n {
				t.Fatalf("%v seq %d: unseal status %v n %d", im.Kind, seq, st, n2)
			}
			if got.Kind != im.Kind || got.TxID != im.TxID {
				t.Errorf("roundtrip content: %+v vs %+v", got, im)
			}
		}
	}
}

func TestUnsealDetectsEveryBitFlip(t *testing.T) {
	// CRC-16 catches all single-bit errors: no flipped bit in a sealed
	// record may unseal as SealOK. (Hitting the valid bit reads as a
	// clean log end — still never OK.)
	im := Image{Kind: ImageUndo, TID: 1, TxID: 9, Addr: 0x800, Data: 0x1234}
	var buf [MaxSealedBytes]byte
	n := im.Seal(buf[:], 4)
	for i := 0; i < n; i++ {
		for b := 0; b < 8; b++ {
			buf[i] ^= 1 << b
			if _, _, st := UnsealImage(buf[:n], 4); st == SealOK {
				t.Fatalf("bit %d of byte %d flipped undetected", b, i)
			}
			buf[i] ^= 1 << b
		}
	}
	// Untouched, it still unseals.
	if _, _, st := UnsealImage(buf[:n], 4); st != SealOK {
		t.Fatalf("control unseal failed: %v", st)
	}
}

func TestUnsealSeqMismatch(t *testing.T) {
	// A stale record left by an earlier, longer log generation carries
	// the wrong sequence number and must be quarantined, not replayed.
	im := CommitImage(0, 7)
	var buf [MaxSealedBytes]byte
	n := im.Seal(buf[:], 3)
	if _, _, st := UnsealImage(buf[:n], 5); st != SealCorrupt {
		t.Errorf("wrong-seq record unsealed with status %v, want corrupt", st)
	}
}

func TestUnsealCleanEnd(t *testing.T) {
	if _, _, st := UnsealImage(make([]byte, 32), 0); st != SealEnd {
		t.Error("zeroed media not treated as log end")
	}
	if _, _, st := UnsealImage(nil, 0); st != SealEnd {
		t.Error("empty buffer not treated as log end")
	}
}

func TestScanCheckedTornTail(t *testing.T) {
	// Crash flush with enough battery for the first record plus one word:
	// the second record tears and must be quarantined while the first
	// survives.
	dev, w := newRegion(1)
	dev.SetCrashEnergy((UndoBytes+SealBytes)+8, true, false)
	w.AppendAtCrash(0, []Image{
		{Kind: ImageUndo, TID: 0, TxID: 1, Addr: 0x100, Data: 1},
	})
	w.AppendAtCrash(0, []Image{
		{Kind: ImageUndo, TID: 0, TxID: 1, Addr: 0x108, Data: 2},
	})
	dev.ClearCrashEnergy()
	res := w.ScanChecked(0)
	if len(res.Images) != 1 || res.Images[0].Data != 1 {
		t.Fatalf("scan kept %d records: %+v", len(res.Images), res.Images)
	}
	if res.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", res.Quarantined)
	}
	if w.CrashImagesTorn != 1 {
		t.Errorf("CrashImagesTorn = %d", w.CrashImagesTorn)
	}
}

func TestScanCheckedDroppedRecordIsCleanEnd(t *testing.T) {
	// Battery too small for even one word of the record: it is dropped
	// whole, leaving zeroed media — a clean log end, not corruption.
	dev, w := newRegion(1)
	dev.SetCrashEnergy(4, true, false)
	w.AppendAtCrash(0, []Image{{Kind: ImageUndo, TID: 0, TxID: 1, Addr: 0x100, Data: 1}})
	dev.ClearCrashEnergy()
	res := w.ScanChecked(0)
	if len(res.Images) != 0 || res.Quarantined != 0 {
		t.Errorf("dropped record misread: %+v", res)
	}
	if w.CrashImagesDropped != 1 {
		t.Errorf("CrashImagesDropped = %d", w.CrashImagesDropped)
	}
}

func TestTruncateResetsSeq(t *testing.T) {
	// Per-thread sequence numbers restart at zero after truncation so a
	// fresh log generation scans cleanly from the area base.
	_, w := newRegion(1)
	for i := 0; i < 3; i++ {
		w.Append(0, 0, []Image{{Kind: ImageUndo, Addr: mem.Addr(i * 8), Data: mem.Word(i)}})
	}
	w.Truncate(0)
	w.Append(0, 0, []Image{{Kind: ImageUndo, Addr: 8, Data: 7}})
	res := w.ScanChecked(0)
	if len(res.Images) != 1 || res.Quarantined != 0 {
		t.Errorf("post-truncate generation misread: %+v", res)
	}
}
