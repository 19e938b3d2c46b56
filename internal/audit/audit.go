// Package audit is the always-on runtime invariant layer of the Silo
// reproduction. The paper's correctness argument rests on structural
// invariants — the 20-entry log buffer and its comparator discipline
// (§III-B/C), the flush-bit state machine against cacheline evictions
// (§III-D), the ADR-protected WPQ (§II-A), the commit-tuple-first crash
// flush ordering (§III-G), and the Table IV battery sizing (§VI-E) —
// that the end-to-end golden-shadow diff can only report hundreds of
// thousands of cycles after they break, as an opaque word mismatch.
//
// The auditor checks each invariant at the step where it can first be
// violated and fails fast: a violation panics with a *Violation carrying
// the invariant's name, the violating cycle, and a ring-buffered trail of
// recent machine events, which the torture harness converts into a
// TortureFailure with the campaign's Repro() line instead of aborting the
// fleet.
//
// The trail rides the machine's typed telemetry stream: the auditor is a
// telemetry.Sink, so every probe event any layer emits lands in the ring
// as a structured telemetry.Event (rendered to strings only when a
// violation needs printing), and the event cycles keep the auditor's
// clock current.
//
// Checks never alter simulated timing or statistics — the auditor costs
// host wall-clock only, so benchmark *results* are identical with it on
// or off; it is switchable purely to keep sweep wall-clock down.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// Named invariants, referenced by tests and by failure reports.
const (
	InvLogBuffer       = "log-buffer"             // occupancy ≤ capacity, comparator/merge consistency
	InvFlushBit        = "flush-bit-eviction"     // evicted line ⇒ matching in-tx entries carry flush-bit 1
	InvWPQ             = "wpq-capacity"           // WPQ occupancy ≤ ADR-domain slot count
	InvCommitDurable   = "commit-durability"      // committed word durable at Tx_end (Log-as-Data IPU)
	InvCrashOrder      = "crash-flush-order"      // commit ID tuple precedes its redo stream
	InvEnergy          = "energy-ledger"          // crash budget never negative; critical set within Table IV sizing
	InvConservation    = "adr-conservation"       // InjectCrash preserves the durable data region
	InvReconstructible = "post-commit-durability" // every committed word reconstructible from durable domains
	InvIdempotence     = "recovery-idempotence"   // a second recovery pass changes nothing
)

// Violation is the fail-fast panic value raised by a failed invariant.
type Violation struct {
	Invariant string // one of the Inv* names
	Message   string
	Cycle     sim.Cycle         // simulated cycle at which the invariant fired
	Trail     []string          // recent machine events rendered, oldest first
	Events    []telemetry.Event // the same trail, structured
}

// Error renders the violation without the trail (the harness prints the
// trail separately, indented under the failure).
func (v *Violation) Error() string {
	return fmt.Sprintf("audit: invariant %s violated at cycle %d: %s", v.Invariant, v.Cycle, v.Message)
}

// trailSize is the event ring's capacity.
const trailSize = 128

// Auditor carries one simulated machine's invariant state. It is not
// safe for concurrent use; the simulation engine serializes all hooks.
// It implements telemetry.Sink, so grafting it onto the machine's
// recorder feeds the trail from every instrumented layer.
type Auditor struct {
	enabled bool

	ring []telemetry.Event
	next int
	full bool

	now    sim.Cycle // latest cycle observed on the event stream
	checks int64

	// Per-crash-flush state (reset by BeginCrashFlush).
	crashTuples   map[uint32]bool // (tid<<16 | txid) commit tuples flushed so far
	crashCritical map[int]int64   // per-thread critical crash-flush bytes
}

// New returns an auditor; a disabled auditor turns every check into a
// cheap no-op so call sites need no nil guards.
func New(enabled bool) *Auditor {
	return &Auditor{enabled: enabled}
}

// Enabled reports whether checks are live.
func (a *Auditor) Enabled() bool { return a != nil && a.enabled }

// Checks returns the number of invariant checks performed (overhead and
// liveness accounting: a mutation test asserting a violation fired is
// vacuous if no checks ran at all).
func (a *Auditor) Checks() int64 {
	if a == nil {
		return 0
	}
	return a.checks
}

// Event implements telemetry.Sink: typed probe events feed the trail
// ring and advance the auditor's cycle clock, which stamps violations.
func (a *Auditor) Event(e telemetry.Event) {
	if !a.Enabled() {
		return
	}
	if e.Cycle > a.now {
		a.now = e.Cycle
	}
	a.record(e)
}

func (a *Auditor) record(e telemetry.Event) {
	if len(a.ring) < trailSize {
		a.ring = append(a.ring, e)
		return
	}
	a.ring[a.next] = e
	a.next = (a.next + 1) % trailSize
	a.full = true
}

// Eventf appends a formatted annotation to the trail, stamped with the
// latest cycle seen on the stream.
func (a *Auditor) Eventf(format string, args ...any) {
	if !a.Enabled() {
		return
	}
	a.record(telemetry.Event{Cycle: a.now, Kind: telemetry.KNote, Core: -1, Note: fmt.Sprintf(format, args...)})
}

// TrailEvents returns the recorded events, oldest first, structured.
func (a *Auditor) TrailEvents() []telemetry.Event {
	if a == nil {
		return nil
	}
	if !a.full {
		out := make([]telemetry.Event, len(a.ring))
		copy(out, a.ring)
		return out
	}
	out := make([]telemetry.Event, 0, trailSize)
	out = append(out, a.ring[a.next:]...)
	out = append(out, a.ring[:a.next]...)
	return out
}

// Trail returns the recorded events rendered to strings, oldest first.
func (a *Auditor) Trail() []string {
	events := a.TrailEvents()
	if events == nil {
		return nil
	}
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.String()
	}
	return out
}

// failf records the violation as a final trail event and panics with it.
func (a *Auditor) failf(invariant, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	a.Eventf("VIOLATION %s: %s", invariant, msg)
	events := a.TrailEvents()
	panic(&Violation{
		Invariant: invariant,
		Message:   msg,
		Cycle:     a.now,
		Trail:     a.Trail(),
		Events:    events,
	})
}

// BufferedDesign is implemented by designs built around per-core
// battery-backed log buffers (Silo); the machine uses it to audit buffer
// discipline without the design having to know about the auditor.
type BufferedDesign interface {
	// LogBuffer returns core's log buffer.
	LogBuffer(core int) *logging.Buffer
	// InTx reports whether core has an open transaction.
	InTx(core int) bool
	// MergeEnabled reports whether comparator merging is on (§III-C);
	// with it on, the buffer must never hold two entries for one word.
	MergeEnabled() bool
}

// CheckLogBuffer enforces the §III-B/§III-C buffer discipline right
// after a store to addr: occupancy within the hardware capacity, and —
// with merging on — at most one entry for addr (the parallel comparator
// array makes a duplicate physically impossible, and the store just
// executed is the only step that can have created one).
func (a *Auditor) CheckLogBuffer(core int, buf *logging.Buffer, mergeOn bool, addr mem.Addr) {
	if !a.Enabled() {
		return
	}
	a.checks++
	if buf.Len() > buf.Cap() {
		a.failf(InvLogBuffer, "core %d log buffer holds %d entries, capacity %d", core, buf.Len(), buf.Cap())
	}
	if !mergeOn {
		return
	}
	w := addr.Word()
	matches := 0
	for _, e := range buf.Entries() {
		if e.Addr == w {
			if matches++; matches > 1 {
				a.failf(InvLogBuffer,
					"core %d holds %d entries for word %v with merging on (comparator miss)",
					core, matches, w)
			}
		}
	}
}

// CheckFlushBits enforces the §III-D flush-bit state machine right after
// a dirty cacheline left the LLC: every in-flight log entry covering a
// word of that line must now carry flush-bit 1, or its new data would be
// redundantly flushed after commit — and, worse, a merge-after-eviction
// bookkeeping bug would silently drop committed data.
func (a *Auditor) CheckFlushBits(core int, buf *logging.Buffer, la mem.Addr) {
	if !a.Enabled() {
		return
	}
	a.checks++
	buf.MatchLine(la, func(e *logging.Entry) {
		if !e.FlushBit {
			a.failf(InvFlushBit,
				"core %d: line %v evicted but entry %v still has flush-bit 0", core, la.Line(), e)
		}
	})
}

// CheckWPQ enforces the ADR-domain slot count: the write pending queue
// can never hold more entries than the platform's battery is sized to
// drain (§II-A; 64 per channel in Table II).
func (a *Auditor) CheckWPQ(channel, occupancy, capacity int) {
	if !a.Enabled() {
		return
	}
	a.checks++
	if occupancy > capacity {
		a.failf(InvWPQ, "WPQ channel %d holds %d entries, capacity %d", channel, occupancy, capacity)
	}
}

// CheckCommitDurability enforces Log-as-Data's post-commit obligation at
// the step it is established: when Tx_end returns, every word the
// transaction wrote must already be durable (WPQ-accepted in-place
// update, evicted cacheline, or overflow flush) — got is the durable
// value actually read back.
func (a *Auditor) CheckCommitDurability(core int, addr mem.Addr, want, got mem.Word) {
	if !a.Enabled() {
		return
	}
	a.checks++
	if want != got {
		a.failf(InvCommitDurable,
			"core %d committed %v=%#x but durable domains hold %#x at Tx_end",
			core, addr, uint64(want), uint64(got))
	}
}

// BeginCrashFlush resets the per-crash bookkeeping; the machine calls it
// at the top of InjectCrash, before the design's battery flush runs.
func (a *Auditor) BeginCrashFlush() {
	if !a.Enabled() {
		return
	}
	a.crashTuples = make(map[uint32]bool)
	a.crashCritical = make(map[int]int64)
}

// ObserveCrashAppend watches one crash-flush append (the RegionWriter
// hook). It enforces the §III-G flush order — a transaction's commit ID
// tuple must reach the log before any of its redo records, because the
// checked recovery scan stops at the first torn record and a tuple
// behind a torn redo suffix would be invisible — and accounts critical
// bytes against the Table IV battery reserve.
func (a *Auditor) ObserveCrashAppend(tid int, critical bool, images []logging.Image) {
	if !a.Enabled() {
		return
	}
	a.checks++
	if a.crashTuples == nil {
		a.crashTuples = make(map[uint32]bool)
	}
	if a.crashCritical == nil {
		a.crashCritical = make(map[int]int64)
	}
	for _, im := range images {
		key := uint32(im.TID)<<16 | uint32(im.TxID)
		switch im.Kind {
		case logging.ImageCommit:
			a.crashTuples[key] = true
		case logging.ImageRedo:
			if !a.crashTuples[key] {
				a.failf(InvCrashOrder,
					"thread %d crash-flushed redo for tx (%d,%d) before its commit ID tuple",
					tid, im.TID, im.TxID)
			}
		}
		if critical {
			a.crashCritical[tid] += int64(im.Size() + logging.SealBytes)
		}
	}
	// No trail event here: the RegionWriter's KLogCrashFlush probe flows
	// through the machine's recorder into this auditor's ring already.
}

// CheckCriticalBudget verifies the must-flush set stayed within the
// battery reserve the paper's Table IV sizes: budgetBytes is the sealed
// size of a full buffer of undo logs plus one commit tuple.
func (a *Auditor) CheckCriticalBudget(tid int, budgetBytes int64) {
	if !a.Enabled() {
		return
	}
	a.checks++
	if got := a.crashCritical[tid]; got > budgetBytes {
		a.failf(InvEnergy,
			"thread %d crash-flushed %d critical bytes, Table IV battery reserve is %d",
			tid, got, budgetBytes)
	}
}

// CheckEnergyLedger verifies the crash-flush energy budget never went
// negative — an accounting bug would let a dead battery keep writing.
func (a *Auditor) CheckEnergyLedger(remaining int) {
	if !a.Enabled() {
		return
	}
	a.checks++
	if remaining < 0 {
		a.failf(InvEnergy, "crash energy budget drained below zero: %d bytes", remaining)
	}
}

// CheckConservation verifies one data-region word across InjectCrash: a
// power failure must preserve the durable (ADR + media) domains exactly.
// allowed lists additionally-legal values for platforms that battery-back
// the caches (eADR/BBB flush dirty lines at the crash).
func (a *Auditor) CheckConservation(addr mem.Addr, before, after mem.Word, allowed []mem.Word) {
	if !a.Enabled() {
		return
	}
	a.checks++
	if after == before {
		return
	}
	for _, v := range allowed {
		if after == v {
			return
		}
	}
	a.failf(InvConservation,
		"crash altered durable word %v: %#x -> %#x (not a battery-backed cache flush)",
		addr, uint64(before), uint64(after))
}

// CheckReconstructible verifies one committed word is reconstructible
// from the durable domains after the crash flush: got is the value the
// recovery procedure would produce (durable data overlaid with the
// resolved log writes), want the golden committed value.
func (a *Auditor) CheckReconstructible(addr mem.Addr, want, got mem.Word) {
	if !a.Enabled() {
		return
	}
	a.checks++
	if want != got {
		a.failf(InvReconstructible,
			"committed word %v not reconstructible after crash flush: recovery would produce %#x, committed %#x",
			addr, uint64(got), uint64(want))
	}
}

// CompareRecoveryPasses is the recovery-idempotence invariant, promoted
// out of the torture harness: it compares the golden-shadow mismatch
// lists and scan counts of two consecutive recovery passes by *content*
// — two passes disagreeing on different words of equal count are just as
// broken as ones disagreeing on count — and returns violation messages
// to append to the first pass's list (which is never dropped).
func CompareRecoveryPasses(first, second []string, firstRecords, secondRecords, firstQuar, secondQuar int) []string {
	var out []string
	if added, removed := diffStrings(first, second); len(added)+len(removed) > 0 {
		msg := fmt.Sprintf("audit: %s: second recovery pass changed the data region", InvIdempotence)
		if len(added) > 0 {
			msg += fmt.Sprintf("; newly wrong: %s", strings.Join(clip(added, 3), "; "))
		}
		if len(removed) > 0 {
			msg += fmt.Sprintf("; silently healed: %s", strings.Join(clip(removed, 3), "; "))
		}
		out = append(out, msg)
	}
	if firstRecords != secondRecords || firstQuar != secondQuar {
		out = append(out, fmt.Sprintf(
			"audit: %s: second recovery pass scanned differently: %d/%d records, %d/%d quarantined",
			InvIdempotence, secondRecords, firstRecords, secondQuar, firstQuar))
	}
	return out
}

// diffStrings returns second∖first (added) and first∖second (removed),
// both sorted, treating the slices as multisets.
func diffStrings(first, second []string) (added, removed []string) {
	count := make(map[string]int, len(first))
	for _, s := range first {
		count[s]++
	}
	for _, s := range second {
		if count[s] > 0 {
			count[s]--
		} else {
			added = append(added, s)
		}
	}
	for s, n := range count {
		for i := 0; i < n; i++ {
			removed = append(removed, s)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

func clip(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	out := make([]string, 0, n+1)
	out = append(out, s[:n]...)
	return append(out, fmt.Sprintf("... %d more", len(s)-n))
}
