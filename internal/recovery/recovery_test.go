package recovery

import (
	"testing"

	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
)

func newDev() (*pm.Device, *logging.RegionWriter) {
	dev := pm.New(pm.DefaultConfig())
	return dev, logging.NewRegionWriter(dev, 4)
}

func TestRecoverEmptyLog(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x100, 5)
	rep := Recover(dev, region)
	if rep.TotalRecords != 0 || rep.RedoApplied != 0 || rep.UndoApplied != 0 {
		t.Errorf("empty log produced work: %+v", rep)
	}
	if dev.PeekWord(0x100) != 5 {
		t.Error("recovery touched data with no logs")
	}
}

func TestRecoverCommittedRedoReplay(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x100, 1) // stale: the IPU never ran
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageRedo, TID: 0, TxID: 7, Addr: 0x100, Data: 2},
		logging.CommitImage(0, 7),
	})
	rep := Recover(dev, region)
	if rep.CommittedTx != 1 || rep.RedoApplied != 1 {
		t.Errorf("report: %+v", rep)
	}
	if got := dev.PeekWord(0x100); got != 2 {
		t.Errorf("redo not replayed: %d", got)
	}
}

func TestRecoverUncommittedUndoRevoke(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x200, 9) // partial update reached PM
	region.AppendAtCrash(1, []logging.Image{
		{Kind: logging.ImageUndo, TID: 1, TxID: 3, Addr: 0x200, Data: 4},
	})
	rep := Recover(dev, region)
	if rep.UndoApplied != 1 {
		t.Errorf("report: %+v", rep)
	}
	if got := dev.PeekWord(0x200); got != 4 {
		t.Errorf("undo not revoked: %d", got)
	}
}

func TestRecoverUndoReverseOrder(t *testing.T) {
	// Two undo records for the same word (merge-disabled shape): the
	// revoke must end at the OLDEST value.
	dev, region := newDev()
	dev.PokeWord(0x300, 30)
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageUndo, TID: 0, TxID: 1, Addr: 0x300, Data: 10}, // oldest
		{Kind: logging.ImageUndo, TID: 0, TxID: 1, Addr: 0x300, Data: 20},
	})
	Recover(dev, region)
	if got := dev.PeekWord(0x300); got != 10 {
		t.Errorf("reverse revoke broken: %d, want 10", got)
	}
}

func TestRecoverOverflowedUndoOfCommittedDiscarded(t *testing.T) {
	// §III-G: overflowed undo logs carry flush-bit 1; if their transaction
	// committed they must be discarded, not replayed.
	dev, region := newDev()
	dev.PokeWord(0x400, 2) // the new value, already durable
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageUndo, FlushBit: true, TID: 0, TxID: 5, Addr: 0x400, Data: 1},
		logging.CommitImage(0, 5),
	})
	rep := Recover(dev, region)
	if rep.Discarded != 1 {
		t.Errorf("discarded = %d, want 1", rep.Discarded)
	}
	if got := dev.PeekWord(0x400); got != 2 {
		t.Errorf("committed data reverted by overflowed undo: %d", got)
	}
}

func TestRecoverOrphanRedoIgnored(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x500, 1)
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageRedo, TID: 0, TxID: 9, Addr: 0x500, Data: 99},
	})
	rep := Recover(dev, region)
	if rep.Discarded != 1 || dev.PeekWord(0x500) != 1 {
		t.Errorf("orphan redo applied: %+v", rep)
	}
}

func TestRecoverUndoRedoRecordBothPaths(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x600, 5)
	dev.PokeWord(0x700, 50)
	region.AppendAtCrash(0, []logging.Image{
		// Committed: replay new value.
		{Kind: logging.ImageUndoRedo, TID: 0, TxID: 1, Addr: 0x600, Data: 4, Data2: 6},
		logging.CommitImage(0, 1),
		// Uncommitted: revoke to old value.
		{Kind: logging.ImageUndoRedo, TID: 0, TxID: 2, Addr: 0x700, Data: 40, Data2: 60},
	})
	rep := Recover(dev, region)
	if rep.RedoApplied != 1 || rep.UndoApplied != 1 {
		t.Errorf("report: %+v", rep)
	}
	if dev.PeekWord(0x600) != 6 {
		t.Error("committed undo+redo not replayed")
	}
	if dev.PeekWord(0x700) != 40 {
		t.Error("uncommitted undo+redo not revoked")
	}
}

func TestRecoverCommittedThenUncommittedSameWord(t *testing.T) {
	// tx1 committed wrote 2 (redo present); tx2 uncommitted wrote 3 with
	// old data 2. Final value must be 2 regardless of apply order.
	dev, region := newDev()
	dev.PokeWord(0x800, 3)
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageRedo, TID: 0, TxID: 1, Addr: 0x800, Data: 2},
		logging.CommitImage(0, 1),
		{Kind: logging.ImageUndo, TID: 0, TxID: 2, Addr: 0x800, Data: 2},
	})
	Recover(dev, region)
	if got := dev.PeekWord(0x800); got != 2 {
		t.Errorf("cross-transaction word = %d, want 2", got)
	}
}

func TestRecoverThreadsIndependent(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x900, 1)
	dev.PokeWord(0xA00, 1)
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageRedo, TID: 0, TxID: 1, Addr: 0x900, Data: 2},
		logging.CommitImage(0, 1),
	})
	region.AppendAtCrash(1, []logging.Image{
		// Same txid on another thread, uncommitted.
		{Kind: logging.ImageUndo, TID: 1, TxID: 1, Addr: 0xA00, Data: 0},
	})
	Recover(dev, region)
	if dev.PeekWord(0x900) != 2 {
		t.Error("thread 0 redo lost")
	}
	if dev.PeekWord(0xA00) != 0 {
		t.Error("thread 1 undo confused with thread 0's commit (ID tuple is (tid,txid))")
	}
}

// TestFig10Scenario walks the paper's worked example (Fig. 10): thread 1
// commits Tx1 and Tx3 (Tx3 still pending its in-place updates at the
// crash); thread 2's Tx2 is in flight with one cacheline already evicted
// to PM. After the crash flush and recovery, Tx1/Tx3's updates are
// durable and Tx2's partial updates are revoked.
func TestFig10Scenario(t *testing.T) {
	dev := pm.New(pm.DefaultConfig())
	fill := func(la mem.Addr, now sim.Cycle, dst *[mem.LineSize]byte) sim.Cycle {
		copy(dst[:], dev.Peek(la, mem.LineSize))
		return 100
	}
	wb := func(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) { dev.Write(now, la, data[:]) }
	env := &logging.Env{
		PM:            dev,
		Cache:         cache.NewHierarchy(2, cache.DefaultHierarchyConfig(), fill, wb),
		Region:        logging.NewRegionWriter(dev, 2),
		Cores:         2,
		LogBufEntries: logging.DefaultBufferEntries,
	}
	s := core.New(env, core.Options{})

	// Data A–H at distinct lines; initial values i0 = 10*i.
	addr := func(i int) mem.Addr { return mem.Addr(0x10000 + i*mem.LineSize) }
	for i := 0; i < 8; i++ {
		dev.PokeWord(addr(i), mem.Word(10*i))
	}
	A, B, C, D, E, F, G, H := addr(0), addr(1), addr(2), addr(3), addr(4), addr(5), addr(6), addr(7)

	// T1 Tx1: A=A1(1), B=B1(11).
	s.TxBegin(0, 0)
	s.Store(0, A, 0, 1, 1)
	s.Store(0, B, 10, 11, 2)
	s.TxEnd(0, 3)
	// T2 Tx2 begins: D=D1(31), E=E1(41), F=F1(51), E=E2(42), G=G1(61), H=H1(71).
	s.TxBegin(1, 0)
	s.Store(1, D, 30, 31, 1)
	s.Store(1, E, 40, 41, 2)
	s.Store(1, F, 50, 51, 3)
	s.Store(1, E, 41, 42, 4) // merged: E keeps old 40, new 42
	// The cacheline holding D1 is evicted to PM (partial update lands).
	var dline [mem.LineSize]byte
	putWord(dline[:8], 31)
	s.CachelineEvicted(5, D, dline)
	s.Store(1, G, 60, 61, 6)
	s.Store(1, H, 70, 71, 7)
	// T1 Tx3: A=A2(2), C=C1(21); commits, IPU still pending at the crash.
	s.TxBegin(0, 10)
	s.Store(0, A, 1, 2, 11)
	s.Store(0, C, 20, 21, 12)
	s.TxEnd(0, 13)

	// Power failure: selective flush + volatile loss + recovery.
	s.Crash(14)
	env.Cache.InvalidateAll()
	rep := Recover(dev, env.Region)

	if rep.CommittedTx != 1 {
		t.Errorf("committed tx found = %d, want 1 (Tx3's ID tuple)", rep.CommittedTx)
	}
	want := map[string]struct {
		a mem.Addr
		v mem.Word
	}{
		"A": {A, 2},  // Tx3 replayed
		"B": {B, 11}, // Tx1 durable
		"C": {C, 21}, // Tx3 replayed
		"D": {D, 30}, // Tx2 revoked (evicted line rolled back)
		"E": {E, 40}, // Tx2 revoked to oldest value
		"F": {F, 50},
		"G": {G, 60},
		"H": {H, 70},
	}
	for name, w := range want {
		if got := dev.PeekWord(w.a); got != w.v {
			t.Errorf("%s = %d, want %d", name, got, w.v)
		}
	}
}

func putWord(b []byte, w mem.Word) {
	for i := 0; i < 8; i++ {
		b[i] = byte(w >> (8 * i))
	}
}

// TestRecoveryIdempotent: recovery after a crash *during recovery* is the
// same as recovering once — applying the log twice converges to the same
// data-region state.
func TestRecoveryIdempotent(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x100, 1)
	dev.PokeWord(0x200, 9)
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageRedo, TID: 0, TxID: 7, Addr: 0x100, Data: 2},
		logging.CommitImage(0, 7),
		{Kind: logging.ImageUndo, TID: 0, TxID: 8, Addr: 0x200, Data: 4},
	})
	first := Recover(dev, region)
	v1, v2 := dev.PeekWord(0x100), dev.PeekWord(0x200)
	second := Recover(dev, region)
	if dev.PeekWord(0x100) != v1 || dev.PeekWord(0x200) != v2 {
		t.Error("second recovery changed the data region")
	}
	if first.TotalRecords != second.TotalRecords {
		t.Error("record counts differ between passes")
	}
}

// TestTornCommitTupleQuarantined is the central robustness guarantee:
// when the crash-flush battery dies mid-way through the commit ID
// tuple, the torn record fails its CRC, is quarantined, and the
// transaction is treated as UNCOMMITTED — its redo records are
// discarded, never silently replayed against a half-durable commit.
func TestTornCommitTupleQuarantined(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x100, 1) // pre-transaction value

	// Battery: one full sealed redo record (18+3 B) plus 8 bytes — the
	// 13 B sealed commit tuple that follows tears at word granularity.
	sealedRedo := logging.UndoBytes + logging.SealBytes
	dev.SetCrashEnergy(sealedRedo+8, true, true)
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageRedo, TID: 0, TxID: 7, Addr: 0x100, Data: 2},
	})
	region.AppendAtCrashCritical(0, []logging.Image{logging.CommitImage(0, 7)})
	dev.ClearCrashEnergy()

	rep := Recover(dev, region)
	if rep.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (the torn tuple)", rep.Quarantined)
	}
	if rep.CommittedTx != 0 {
		t.Errorf("committed tx = %d, want 0: a torn tuple is no tuple", rep.CommittedTx)
	}
	if rep.RedoApplied != 0 || rep.Discarded == 0 {
		t.Errorf("orphan redo handling wrong: %+v", rep)
	}
	if got := dev.PeekWord(0x100); got != 1 {
		t.Errorf("data = %d, want pre-transaction 1 (redo must not replay)", got)
	}
}

// TestTornRedoSuffixKeepsCommit: Silo's crash flush writes the commit
// tuple BEFORE the pending redo records, so a torn suffix only ever
// costs redundant redo — the committed transaction survives.
func TestTornRedoSuffixKeepsCommit(t *testing.T) {
	dev, region := newDev()
	dev.PokeWord(0x100, 2) // IPU already durable (eager-apply PM)

	sealedCommit := logging.CommitBytes + logging.SealBytes
	dev.SetCrashEnergy(sealedCommit+8, true, false)
	region.AppendAtCrashCritical(0, []logging.Image{logging.CommitImage(0, 7)})
	region.AppendAtCrash(0, []logging.Image{
		{Kind: logging.ImageRedo, TID: 0, TxID: 7, Addr: 0x100, Data: 2},
	})
	dev.ClearCrashEnergy()

	rep := Recover(dev, region)
	if rep.CommittedTx != 1 {
		t.Errorf("committed tx = %d, want 1 (tuple flushed before redo)", rep.CommittedTx)
	}
	if got := dev.PeekWord(0x100); got != 2 {
		t.Errorf("committed data lost: %d", got)
	}
}

// TestMidRecoveryCrashConverges: recovery itself can lose power. A
// bounded pass reports Complete=false; restarting from scratch with a
// bigger battery converges to exactly the one-shot result, because
// recovery never mutates the log.
func TestMidRecoveryCrashConverges(t *testing.T) {
	build := func() (*pm.Device, *logging.RegionWriter) {
		dev, region := newDev()
		dev.PokeWord(0x100, 1)
		dev.PokeWord(0x200, 9)
		dev.PokeWord(0x300, 9)
		region.AppendAtCrash(0, []logging.Image{
			{Kind: logging.ImageRedo, TID: 0, TxID: 7, Addr: 0x100, Data: 2},
			logging.CommitImage(0, 7),
			{Kind: logging.ImageUndo, TID: 0, TxID: 8, Addr: 0x200, Data: 4},
			{Kind: logging.ImageUndo, TID: 0, TxID: 8, Addr: 0x300, Data: 5},
		})
		return dev, region
	}

	// Reference: one uninterrupted pass.
	refDev, refRegion := build()
	refRep := Recover(refDev, refRegion)
	if !refRep.Complete {
		t.Fatal("unbounded recovery reported incomplete")
	}

	// A bounded pass stops at its budget.
	bDev, bRegion := build()
	if rep := RecoverOpts(bDev, bRegion, Options{MaxWrites: 1}); rep.Complete || rep.AppliedWrites != 1 {
		t.Fatalf("MaxWrites=1 pass: %+v, want incomplete after 1 word", rep)
	}

	// Crash-ridden: one applied word per attempt, doubling.
	dev, region := build()
	rep, restarts := RecoverRestarting(dev, region, 1, Options{})
	if restarts == 0 {
		t.Fatal("MaxWrites=1 never interrupted a 3-write recovery")
	}
	for _, a := range []mem.Addr{0x100, 0x200, 0x300} {
		if got, want := dev.PeekWord(a), refDev.PeekWord(a); got != want {
			t.Errorf("word %#x = %d after re-crashed recovery, one-shot got %d", uint64(a), got, want)
		}
	}
	if rep.CommittedTx != refRep.CommittedTx || rep.UndoApplied != refRep.UndoApplied {
		t.Errorf("final pass report %+v differs from one-shot %+v", rep, refRep)
	}
}
