package core

import (
	"testing"

	"silo/internal/cache"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
	"silo/internal/stats"
)

// newEnv builds a real device + region + cache environment for driving
// the design directly, without the full machine.
func newEnv(cores int) (*logging.Env, *pm.Device) {
	dev := pm.New(pm.DefaultConfig())
	fill := func(la mem.Addr, now sim.Cycle, dst *[mem.LineSize]byte) sim.Cycle {
		copy(dst[:], dev.Peek(la, mem.LineSize))
		return 100
	}
	wb := func(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
		dev.Write(now, la, data[:])
	}
	env := &logging.Env{
		PM:            dev,
		Cache:         cache.NewHierarchy(cores, cache.DefaultHierarchyConfig(), fill, wb),
		Region:        logging.NewRegionWriter(dev, cores),
		Cores:         cores,
		LogBufEntries: logging.DefaultBufferEntries,
		LogBufLatency: 8,
	}
	return env, dev
}

func newSilo(t *testing.T, opts Options) (*Silo, *pm.Device) {
	t.Helper()
	env, dev := newEnv(1)
	return New(env, opts), dev
}

func TestBatchN(t *testing.T) {
	s, _ := newSilo(t, Options{})
	if s.BatchN() != 14 {
		t.Errorf("BatchN = %d; paper: ⌊256/18⌋ = 14", s.BatchN())
	}
}

func TestLogIgnorance(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x100, 5, 5, 1) // unchanged word: ignored
	s.Store(0, 0x108, 5, 6, 2) // changed: logged
	if s.cores[0].buf.Len() != 1 {
		t.Errorf("buffer has %d entries, want 1", s.cores[0].buf.Len())
	}
	if s.ignored != 1 || s.created != 2 {
		t.Errorf("ignored/created = %d/%d, want 1/2", s.ignored, s.created)
	}
}

func TestLogIgnoranceDisabled(t *testing.T) {
	s, _ := newSilo(t, Options{DisableIgnore: true})
	s.TxBegin(0, 0)
	s.Store(0, 0x100, 5, 5, 1)
	if s.cores[0].buf.Len() != 1 {
		t.Error("ignored a write despite DisableIgnore")
	}
}

func TestLogMerging(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x100, 10, 11, 1)
	s.Store(0, 0x100, 11, 12, 2)
	buf := s.cores[0].buf
	if buf.Len() != 1 {
		t.Fatalf("merge failed: %d entries", buf.Len())
	}
	e := buf.Entries()[0]
	if e.Old != 10 || e.New != 12 {
		t.Errorf("merged old/new = %d/%d, want 10/12 (oldest old, newest new)", e.Old, e.New)
	}
	if s.merged != 1 {
		t.Errorf("merged counter = %d", s.merged)
	}
}

func TestLogMergingDisabled(t *testing.T) {
	s, _ := newSilo(t, Options{DisableMerge: true})
	s.TxBegin(0, 0)
	s.Store(0, 0x100, 10, 11, 1)
	s.Store(0, 0x100, 11, 12, 2)
	if s.cores[0].buf.Len() != 2 {
		t.Errorf("DisableMerge: %d entries, want 2", s.cores[0].buf.Len())
	}
}

func TestNonTransactionalStoreNotLogged(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.Store(0, 0x100, 1, 2, 0)
	if s.created != 0 || s.cores[0].buf.Len() != 0 {
		t.Error("non-transactional store was logged")
	}
}

func TestStoreNeverStalls(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	for i := 0; i < 100; i++ { // includes overflows
		if lat := s.Store(0, mem.Addr(0x1000+i*8), 0, mem.Word(i+1), sim.Cycle(i)); lat != 0 {
			t.Fatalf("store %d stalled %d cycles; the log path is off the critical path", i, lat)
		}
	}
}

func TestOverflowBatchedEviction(t *testing.T) {
	s, dev := newSilo(t, Options{})
	s.TxBegin(0, 0)
	// Fill the 20-entry buffer with distinct words, then one more.
	for i := 0; i <= logging.DefaultBufferEntries; i++ {
		s.Store(0, mem.Addr(0x1000+i*8), 0, mem.Word(i+1), sim.Cycle(i))
	}
	if s.overflows != 1 {
		t.Fatalf("overflows = %d, want 1", s.overflows)
	}
	// 14 evicted + 1 appended after.
	if got := s.cores[0].buf.Len(); got != logging.DefaultBufferEntries-s.BatchN()+1 {
		t.Errorf("buffer len after overflow = %d", got)
	}
	// The evicted undo logs are in the log region with flush-bit 1.
	records := s.env.Region.Scan(0)
	if len(records) != s.BatchN() {
		t.Fatalf("log region has %d records, want %d", len(records), s.BatchN())
	}
	for i, im := range records {
		if im.Kind != logging.ImageUndo || !im.FlushBit {
			t.Errorf("record %d: kind=%v flush=%v, want undo/flush-bit 1", i, im.Kind, im.FlushBit)
		}
	}
	// Durability: the evicted entries' new data reached the data region.
	for i := 0; i < s.BatchN(); i++ {
		if got := dev.PeekWord(mem.Addr(0x1000 + i*8)); got != mem.Word(i+1) {
			t.Errorf("overflowed word %d not installed: %d", i, got)
		}
	}
}

func TestOverflowSingleEntryAblation(t *testing.T) {
	s, _ := newSilo(t, Options{SingleEntryOverflow: true})
	s.TxBegin(0, 0)
	for i := 0; i <= logging.DefaultBufferEntries; i++ {
		s.Store(0, mem.Addr(0x1000+i*8), 0, mem.Word(i+1), sim.Cycle(i))
	}
	if got := s.cores[0].buf.Len(); got != logging.DefaultBufferEntries {
		t.Errorf("single-entry overflow: buffer len %d, want full", got)
	}
	if len(s.env.Region.Scan(0)) != 1 {
		t.Error("single-entry overflow should write exactly one record")
	}
}

func TestTxEndInPlaceUpdates(t *testing.T) {
	s, dev := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x2000, 0, 77, 1)
	s.Store(0, 0x2008, 0, 88, 2)
	lat := s.TxEnd(0, 10)
	if lat < 6 || lat > 20 {
		t.Errorf("commit latency = %d; should be a few cycles (on-chip ACK)", lat)
	}
	if got := dev.PeekWord(0x2000); got != 77 {
		t.Errorf("IPU missed word: %d", got)
	}
	if got := dev.PeekWord(0x2008); got != 88 {
		t.Errorf("IPU missed word: %d", got)
	}
	// No log-region traffic in the failure-free case.
	if len(s.env.Region.Scan(0)) != 0 {
		t.Error("failure-free commit wrote the log region")
	}
	if !s.cores[0].pending {
		t.Error("buffer should be committed-pending until dealloc")
	}
}

func TestFlushBitSuppressesIPU(t *testing.T) {
	s, dev := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x3000, 0, 5, 1)
	s.Store(0, 0x3040, 0, 6, 2) // different line
	// The line holding 0x3000 is evicted mid-transaction.
	var line [mem.LineSize]byte
	line[0] = 5
	s.CachelineEvicted(3, 0x3000, line)
	if s.flushBitSets != 1 {
		t.Fatalf("flushBitSets = %d, want 1", s.flushBitSets)
	}
	wpq := dev.Stats().WPQWrites // 1 (the eviction)
	s.TxEnd(0, 10)
	// Only the un-evicted word is flushed: exactly one more WPQ write.
	if got := dev.Stats().WPQWrites; got != wpq+1 {
		t.Errorf("TxEnd issued %d writes, want 1 (flush-bit suppression)", got-wpq)
	}
	if got := dev.PeekWord(0x3040); got != 6 {
		t.Errorf("unevicted word not installed: %d", got)
	}
}

func TestDeallocOnNextTxBegin(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x4000, 0, 1, 1)
	s.TxEnd(0, 10)
	if !s.cores[0].pending {
		t.Fatal("not pending after commit")
	}
	stall := s.TxBegin(0, 1_000_000) // long after the flush finished
	if stall != 0 {
		t.Errorf("late TxBegin stalled %d cycles", stall)
	}
	if s.cores[0].pending || s.cores[0].buf.Len() != 0 {
		t.Error("buffer not deallocated")
	}
}

func TestDeallocWaitsForPendingFlush(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x4000, 0, 1, 1)
	s.TxEnd(0, 10)
	done := s.cores[0].flushDoneAt
	if done <= 10 {
		t.Skip("flush accepted instantly; nothing to wait for")
	}
	if stall := s.TxBegin(0, 10); stall != done-10 {
		t.Errorf("TxBegin stall = %d, want %d", stall, done-10)
	}
}

func TestOverflowTruncatedAfterCommit(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	for i := 0; i <= logging.DefaultBufferEntries; i++ {
		s.Store(0, mem.Addr(0x5000+i*8), 0, mem.Word(i+1), sim.Cycle(i))
	}
	s.TxEnd(0, 100)
	if len(s.env.Region.Scan(0)) == 0 {
		t.Fatal("overflowed logs should still be in the region while pending")
	}
	s.TxBegin(0, 1_000_000) // dealloc
	if len(s.env.Region.Scan(0)) != 0 {
		t.Error("overflowed logs not truncated after commit (§III-F)")
	}
}

func TestCrashUncommittedFlushesUndo(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x6000, 1, 2, 1)
	s.Store(0, 0x6008, 3, 4, 2)
	s.Crash(5)
	records := s.env.Region.Scan(0)
	if len(records) != 2 {
		t.Fatalf("crash flushed %d records, want 2 undo", len(records))
	}
	for _, im := range records {
		if im.Kind != logging.ImageUndo {
			t.Errorf("crash record kind %v, want undo (uncommitted tx)", im.Kind)
		}
	}
	if records[0].Data != 1 || records[1].Data != 3 {
		t.Errorf("undo old data wrong: %d, %d", records[0].Data, records[1].Data)
	}
}

func TestCrashPendingFlushesRedoAndIDTuple(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x7000, 1, 2, 1)
	s.TxEnd(0, 10)
	s.Crash(11) // while committed-pending
	records := s.env.Region.Scan(0)
	if len(records) != 2 {
		t.Fatalf("crash flushed %d records, want ID tuple + redo", len(records))
	}
	// The ID tuple must precede the redo stream: the checked recovery
	// scan stops at the first torn record, so if a bounded crash-flush
	// budget tears the (tolerable) redo suffix, the tuple still lands —
	// a tuple *behind* the tear would let flush-bit-1 undo logs revoke
	// committed data.
	if records[0].Kind != logging.ImageCommit {
		t.Errorf("missing ID tuple: %+v", records[0])
	}
	if records[1].Kind != logging.ImageRedo || records[1].Data != 2 {
		t.Errorf("redo record wrong: %+v", records[1])
	}
}

func TestCrashIdleFlushesNothing(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x8000, 1, 2, 1)
	s.TxEnd(0, 10)
	s.TxBegin(0, 1_000_000)
	s.TxEnd(0, 1_000_001) // empty tx commits instantly
	s.TxBegin(0, 2_000_000)
	s.TxEnd(0, 2_000_001)
	s.Crash(3_000_000)
	// Last tx was empty: pending with no entries -> only an ID tuple.
	for _, im := range s.env.Region.Scan(0) {
		if im.Kind != logging.ImageCommit {
			t.Errorf("idle crash flushed %v", im.Kind)
		}
	}
}

func TestEvictionGoesToDataRegion(t *testing.T) {
	s, dev := newSilo(t, Options{})
	var line [mem.LineSize]byte
	line[8] = 42
	s.CachelineEvicted(0, 0x9000, line)
	if got := dev.Peek(0x9008, 1)[0]; got != 42 {
		t.Errorf("eviction not written to data region: %d", got)
	}
}

func TestLogReductionStats(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x100, 0, 1, 1) // kept
	s.Store(0, 0x100, 1, 2, 2) // merged
	s.Store(0, 0x108, 3, 3, 3) // ignored
	s.TxEnd(0, 10)
	total, remaining, maxRem := s.LogReduction()
	if total != 3 || remaining != 1 || maxRem != 1 {
		t.Errorf("LogReduction = %v/%v/%v, want 3/1/1", total, remaining, maxRem)
	}
}

func TestCollectStats(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	s.Store(0, 0x100, 0, 1, 1)
	s.Store(0, 0x100, 1, 2, 2)
	s.Store(0, 0x108, 3, 3, 3)
	var r stats.Run
	s.CollectStats(&r)
	if r.LogEntriesCreated != 3 || r.LogEntriesMerged != 1 || r.LogEntriesIgnored != 1 {
		t.Errorf("stats wrong: %+v", r)
	}
	if s.Name() != "Silo" {
		t.Error("name")
	}
}

func TestTxIDAdvances(t *testing.T) {
	s, _ := newSilo(t, Options{})
	s.TxBegin(0, 0)
	id1 := s.cores[0].txid
	s.TxEnd(0, 1)
	s.TxBegin(0, 2)
	if s.cores[0].txid != id1+1 {
		t.Error("txid did not advance")
	}
}

func TestMultiCoreIndependentBuffers(t *testing.T) {
	env, _ := newEnv(2)
	s := New(env, Options{})
	s.TxBegin(0, 0)
	s.TxBegin(1, 0)
	s.Store(0, 0x100, 0, 1, 1)
	s.Store(1, 0x100000, 0, 2, 1)
	if s.cores[0].buf.Len() != 1 || s.cores[1].buf.Len() != 1 {
		t.Error("per-core buffers not independent")
	}
	// An eviction covering core 1's logged line sets only its flush bit.
	var line [mem.LineSize]byte
	line[0] = 2
	s.CachelineEvicted(2, 0x100000, line)
	if s.cores[0].buf.Entry(0).FlushBit {
		t.Error("core 0's log flagged by core 1's eviction")
	}
	if !s.cores[1].buf.Entry(0).FlushBit {
		t.Error("core 1's log not flagged")
	}
}

// TestLogAreaBoundedUnderOverflowChurn: overflow logs are truncated at
// dealloc, so the thread log area must never grow without bound even when
// every transaction overflows.
func TestLogAreaBoundedUnderOverflowChurn(t *testing.T) {
	s, _ := newSilo(t, Options{})
	var maxUsed uint64
	for tx := 0; tx < 200; tx++ {
		s.TxBegin(0, sim.Cycle(tx*1000))
		for i := 0; i < 3*logging.DefaultBufferEntries; i++ {
			addr := mem.Addr(0x100000 + i*8)
			s.Store(0, addr, mem.Word(tx), mem.Word(tx+1), sim.Cycle(tx*1000+i))
		}
		s.TxEnd(0, sim.Cycle(tx*1000+900))
		if u := s.env.Region.Used(0); u > maxUsed {
			maxUsed = u
		}
	}
	// One transaction spills at most (3*cap) undo records of 18 B.
	if limit := uint64(3*logging.DefaultBufferEntries*logging.UndoBytes) + 64; maxUsed > limit {
		t.Errorf("log area grew to %d bytes, want <= %d (per-tx truncation)", maxUsed, limit)
	}
}
