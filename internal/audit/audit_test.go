package audit

import (
	"fmt"
	"strings"
	"testing"

	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/telemetry"
)

// violation runs fn and returns the *Violation it panics with, failing
// the test if it does not panic or panics with something else.
func violation(t *testing.T, fn func()) *Violation {
	t.Helper()
	var v *Violation
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			var ok bool
			if v, ok = r.(*Violation); !ok {
				t.Fatalf("panicked with %T: %v", r, r)
			}
		}()
		fn()
	}()
	if v == nil {
		t.Fatal("expected an audit violation")
	}
	return v
}

func TestTrailRingKeepsNewest(t *testing.T) {
	a := New(true)
	for i := 0; i < 200; i++ {
		a.Eventf("e%d", i)
	}
	tr := a.Trail()
	if len(tr) != trailSize {
		t.Fatalf("trail holds %d events, want %d", len(tr), trailSize)
	}
	if tr[0] != fmt.Sprintf("e%d", 200-trailSize) {
		t.Errorf("oldest retained = %q", tr[0])
	}
	if tr[len(tr)-1] != "e199" {
		t.Errorf("newest = %q", tr[len(tr)-1])
	}
}

func TestViolationCarriesTrailAndName(t *testing.T) {
	a := New(true)
	a.Eventf("before")
	v := violation(t, func() { a.CheckWPQ(0, 65, 64) })
	if v.Invariant != InvWPQ {
		t.Errorf("invariant = %q", v.Invariant)
	}
	if !strings.Contains(v.Error(), "invariant "+InvWPQ+" violated") {
		t.Errorf("error = %q", v.Error())
	}
	if len(v.Trail) < 2 || v.Trail[0] != "before" {
		t.Errorf("trail = %v", v.Trail)
	}
	if !strings.HasPrefix(v.Trail[len(v.Trail)-1], "VIOLATION "+InvWPQ) {
		t.Errorf("last trail event = %q", v.Trail[len(v.Trail)-1])
	}
}

// Five events past a full ring, the trail holds exactly the last
// trailSize events, oldest first.
func TestTrailRingWrapsInOrder(t *testing.T) {
	a := New(true)
	const n = trailSize + 5
	for i := 0; i < n; i++ {
		a.Eventf("e%d", i)
	}
	tr := a.Trail()
	if len(tr) != trailSize {
		t.Fatalf("trail holds %d events, want %d", len(tr), trailSize)
	}
	for i, got := range tr {
		if want := fmt.Sprintf("e%d", n-trailSize+i); got != want {
			t.Fatalf("trail[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestAuditorIsTelemetrySink(t *testing.T) {
	a := New(true)
	var _ telemetry.Sink = a
	r := telemetry.NewRecorder(a)
	r.TxBegin(1, 500, 3)
	r.WPQWrite(0, 640, 12, 4, 64)
	a.Eventf("manual note")

	events := a.TrailEvents()
	if len(events) != 3 {
		t.Fatalf("trail events = %+v", events)
	}
	if events[0].Kind != telemetry.KTxBegin || events[1].Kind != telemetry.KWPQWrite {
		t.Errorf("typed events not retained: %+v", events)
	}
	// The Eventf note is stamped with the latest stream cycle.
	if events[2].Cycle != 640 {
		t.Errorf("note cycle = %d, want 640", events[2].Cycle)
	}
	// A violation carries the stream cycle and the structured events.
	v := violation(t, func() { a.CheckWPQ(0, 65, 64) })
	if v.Cycle != 640 {
		t.Errorf("violation cycle = %d, want 640", v.Cycle)
	}
	if len(v.Events) != len(v.Trail) || v.Events[0].Kind != telemetry.KTxBegin {
		t.Errorf("structured events missing: %d events vs %d trail", len(v.Events), len(v.Trail))
	}
	if !strings.Contains(v.Error(), "at cycle 640") {
		t.Errorf("error lacks cycle: %q", v.Error())
	}
	// Disabled auditors ignore the stream.
	d := New(false)
	telemetry.NewRecorder(d).TxBegin(0, 1, 0)
	if len(d.TrailEvents()) != 0 {
		t.Error("disabled auditor recorded stream events")
	}
}

func TestDisabledAuditorIsInert(t *testing.T) {
	for _, a := range []*Auditor{New(false), nil} {
		a.CheckWPQ(0, 1000, 64)
		a.CheckEnergyLedger(-5)
		a.CheckCommitDurability(0, 0x100, 1, 2)
		a.CheckConservation(0x100, 1, 2, nil)
		a.CheckReconstructible(0x100, 1, 2)
		a.Eventf("ignored")
		if a.Checks() != 0 || len(a.Trail()) != 0 {
			t.Error("disabled auditor did work")
		}
	}
}

func TestCheckLogBufferDuplicateWithMergeOn(t *testing.T) {
	a := New(true)
	buf := logging.NewBuffer(20)
	buf.Push(logging.Entry{Addr: 0x1000, New: 1})
	buf.Push(logging.Entry{Addr: 0x1040, New: 2})
	a.CheckLogBuffer(0, buf, true, 0x1000) // unique: fine
	buf.Push(logging.Entry{Addr: 0x1000, New: 3})
	v := violation(t, func() { a.CheckLogBuffer(0, buf, true, 0x1000) })
	if v.Invariant != InvLogBuffer {
		t.Errorf("invariant = %q", v.Invariant)
	}
	// With merging off, duplicates are legal.
	a2 := New(true)
	a2.CheckLogBuffer(0, buf, false, 0x1000)
}

func TestCheckFlushBits(t *testing.T) {
	a := New(true)
	buf := logging.NewBuffer(20)
	buf.Push(logging.Entry{Addr: 0x2000, FlushBit: true})
	buf.Push(logging.Entry{Addr: 0x2008, FlushBit: false})
	v := violation(t, func() { a.CheckFlushBits(1, buf, 0x2000) })
	if v.Invariant != InvFlushBit {
		t.Errorf("invariant = %q", v.Invariant)
	}
	// A different line's entries are not implicated.
	a.CheckFlushBits(1, buf, 0x9000)
}

func TestCrashFlushOrderInvariant(t *testing.T) {
	tuple := logging.CommitImage(0, 7)
	redo := logging.Image{Kind: logging.ImageRedo, TID: 0, TxID: 7, Addr: 0x100, Data: 1}

	a := New(true)
	a.BeginCrashFlush()
	a.ObserveCrashAppend(0, true, []logging.Image{tuple})
	a.ObserveCrashAppend(0, false, []logging.Image{redo}) // tuple first: fine

	b := New(true)
	b.BeginCrashFlush()
	v := violation(t, func() { b.ObserveCrashAppend(0, false, []logging.Image{redo}) })
	if v.Invariant != InvCrashOrder {
		t.Errorf("invariant = %q", v.Invariant)
	}
}

func TestCriticalBudgetAccounting(t *testing.T) {
	a := New(true)
	a.BeginCrashFlush()
	undo := logging.Entry{TID: 0, TxID: 1, Addr: 0x100, Old: 1}.UndoImage()
	images := make([]logging.Image, 21) // one more than a 20-entry buffer
	for i := range images {
		images[i] = undo
	}
	a.ObserveCrashAppend(0, true, images)
	budget := int64(20*(logging.UndoBytes+logging.SealBytes) + logging.CommitBytes + logging.SealBytes)
	v := violation(t, func() { a.CheckCriticalBudget(0, budget) })
	if v.Invariant != InvEnergy {
		t.Errorf("invariant = %q", v.Invariant)
	}
	// Exactly a full buffer of undo plus the tuple fits.
	b := New(true)
	b.BeginCrashFlush()
	b.ObserveCrashAppend(0, true, images[:20])
	b.ObserveCrashAppend(0, true, []logging.Image{logging.CommitImage(0, 1)})
	b.CheckCriticalBudget(0, budget)
}

func TestEnergyLedgerNonNegative(t *testing.T) {
	a := New(true)
	a.CheckEnergyLedger(0)
	v := violation(t, func() { a.CheckEnergyLedger(-1) })
	if v.Invariant != InvEnergy {
		t.Errorf("invariant = %q", v.Invariant)
	}
}

func TestConservationAllowsBatteryBackedCacheFlush(t *testing.T) {
	a := New(true)
	a.CheckConservation(0x100, 5, 5, nil)           // unchanged
	a.CheckConservation(0x100, 5, 9, []mem.Word{9}) // eADR flush
	v := violation(t, func() { a.CheckConservation(0x100, 5, 9, []mem.Word{7}) })
	if v.Invariant != InvConservation {
		t.Errorf("invariant = %q", v.Invariant)
	}
}

func TestCompareRecoveryPassesContentSensitive(t *testing.T) {
	// Identical passes: silent.
	if out := CompareRecoveryPasses([]string{"a"}, []string{"a"}, 5, 5, 0, 0); len(out) != 0 {
		t.Errorf("identical passes reported: %v", out)
	}
	// Equal-length lists with different contents — the case the old
	// len()-based bookkeeping missed entirely.
	out := CompareRecoveryPasses([]string{"word A wrong"}, []string{"word B wrong"}, 5, 5, 0, 0)
	if len(out) != 1 || !strings.Contains(out[0], InvIdempotence) {
		t.Fatalf("equal-count content change not reported: %v", out)
	}
	if !strings.Contains(out[0], "word B wrong") || !strings.Contains(out[0], "word A wrong") {
		t.Errorf("diff lacks added/removed detail: %v", out)
	}
	// A second pass that heals mismatches is just as non-idempotent.
	if out := CompareRecoveryPasses([]string{"a"}, nil, 5, 5, 0, 0); len(out) != 1 {
		t.Errorf("silent healing not reported: %v", out)
	}
	// Scan-shape changes are reported separately.
	out = CompareRecoveryPasses(nil, nil, 5, 4, 0, 1)
	if len(out) != 1 || !strings.Contains(out[0], "scanned differently") {
		t.Errorf("scan change not reported: %v", out)
	}
}
