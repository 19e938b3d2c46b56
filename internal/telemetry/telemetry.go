// Package telemetry is the cycle-accurate observability layer of the
// simulator: a typed, cycle-timestamped probe-event stream, its sinks,
// and the Prometheus text exposition of metric snapshots.
//
// Every architectural layer — core transaction lifecycle, cache hierarchy,
// memory controller, PM device, logging hardware, recovery — emits typed
// probe events through a *Recorder. A nil Recorder is the disabled state:
// every probe method nil-checks its receiver and returns, so the hot path
// costs one predictable branch and zero allocations when telemetry is off.
//
// Probes never alter simulated timing or run statistics: a run with
// telemetry enabled produces byte-identical stats.Run results. Sinks pay
// host wall-clock only.
package telemetry

import (
	"fmt"

	"silo/internal/mem"
	"silo/internal/sim"
)

// Kind enumerates the probe-event types. The payload fields A/B/C of an
// Event are kind-specific; see the constants below.
type Kind uint8

const (
	// KNote is a free-form annotation (Note carries the text). The audit
	// layer uses it for check-site context and violation markers.
	KNote Kind = iota

	// KTxBegin marks Tx_begin on a core. A = transactions committed so far.
	KTxBegin
	// KTxCommit marks Tx_end returning on a core. A = commit stall cycles,
	// B = words written by the transaction, C = whole-transaction latency.
	KTxCommit
	// KCrash marks a power-failure injection. A = committed transactions,
	// B = operations executed.
	KCrash

	// KLLCEvict marks a dirty line leaving the LLC toward the memory
	// controller. Addr = line address. Core = evicting core (-1 shared).
	KLLCEvict
	// KFlushBitSet marks flush-bits set on in-flight log entries after a
	// cacheline eviction (§III-D). Addr = line, A = entries flagged.
	KFlushBitSet
	// KFlushBitClear marks log-buffer deallocation releasing entries at
	// Tx_begin. A = entries released.
	KFlushBitClear

	// KWPQWrite marks one write request accepted into a memory
	// controller's write pending queue. Core = channel, A = queue depth at
	// acceptance, B = stall cycles (acceptance - arrival), C = bytes.
	KWPQWrite

	// KPMBufOpen marks a new on-PM buffer line opened. Addr = line base,
	// A = bytes written.
	KPMBufOpen
	// KPMBufMerge marks a write coalesced into an existing on-PM buffer
	// line (Fig. 9). Addr = line base, A = bytes merged.
	KPMBufMerge
	// KPMBufWriteback marks an on-PM buffer line draining to the media.
	// Addr = line base, A = bytes programmed, B = bytes DCW-suppressed,
	// C = media write requests issued.
	KPMBufWriteback
	// KCrashEnergy marks one crash-flush write drawing on the battery
	// budget. A = bytes requested, B = bytes allowed, C = 1 if critical.
	KCrashEnergy

	// KLogBufOcc samples a core's log-buffer occupancy after it changed.
	// A = occupancy, B = capacity.
	KLogBufOcc
	// KLogOverflow marks a batched overflow eviction (§III-F). Core =
	// thread, A = entries evicted.
	KLogOverflow
	// KLogSeal marks sealed records appended to the PM log region. Core =
	// thread, A = records, B = bytes.
	KLogSeal
	// KLogCrashFlush marks a battery-powered crash-flush append (§III-G).
	// Core = thread, A = records, B = 1 if critical.
	KLogCrashFlush

	// KRecoveryScan reports one thread's checked log scan. Core = thread,
	// A = well-formed records, B = quarantined records.
	KRecoveryScan
	// KRecoveryApply reports a recovery pass's replay totals. A = redo
	// applied, B = undo applied, C = records discarded.
	KRecoveryApply

	// KRoute marks a cluster router decision. Core = target node,
	// A = key hash low bits, B = attempt number, C = 1 when the router
	// fast-failed because the node was marked down.
	KRoute
	// KNodeQueue samples a cluster node's request-queue depth after it
	// changed. Core = node, A = depth, B = capacity, C = 1 when the
	// triggering request was shed (queue full).
	KNodeQueue
	// KNodeState marks a cluster node availability transition. Core =
	// node, A = state (0 up, 1 down, 2 recovering), B = crash ordinal.
	KNodeState
	// KReplLag samples a replica's replication apply: Core = replica
	// node, A = commit-to-apply lag in cycles, B = replication messages
	// still queued behind it.
	KReplLag

	numKinds
)

var kindNames = [numKinds]string{
	KNote:           "note",
	KTxBegin:        "tx-begin",
	KTxCommit:       "tx-commit",
	KCrash:          "crash",
	KLLCEvict:       "llc-evict",
	KFlushBitSet:    "flush-bit-set",
	KFlushBitClear:  "flush-bit-clear",
	KWPQWrite:       "wpq-write",
	KPMBufOpen:      "pmbuf-open",
	KPMBufMerge:     "pmbuf-merge",
	KPMBufWriteback: "pmbuf-writeback",
	KCrashEnergy:    "crash-energy",
	KLogBufOcc:      "logbuf-occ",
	KLogOverflow:    "log-overflow",
	KLogSeal:        "log-seal",
	KLogCrashFlush:  "log-crash-flush",
	KRecoveryScan:   "recovery-scan",
	KRecoveryApply:  "recovery-apply",
	KRoute:          "route",
	KNodeQueue:      "node-queue",
	KNodeState:      "node-state",
	KReplLag:        "repl-lag",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one typed probe event. It is a fixed-size value: emitting one
// allocates nothing, and a ring of Events (the audit trail) recycles
// storage. Note is non-empty only for KNote.
type Event struct {
	Cycle sim.Cycle
	Kind  Kind
	Core  int16 // core / thread / channel, -1 when not applicable
	Addr  mem.Addr
	A     int64 // kind-specific payload; see the Kind constants
	B     int64
	C     int64
	Note  string
}

// String renders the event for human-readable trails and logs.
func (e Event) String() string {
	switch e.Kind {
	case KNote:
		return e.Note
	case KTxBegin:
		return fmt.Sprintf("tx-begin: core=%d commits=%d now=%d", e.Core, e.A, e.Cycle)
	case KTxCommit:
		return fmt.Sprintf("tx-commit: core=%d stall=%d words=%d txlat=%d now=%d", e.Core, e.A, e.B, e.C, e.Cycle)
	case KCrash:
		return fmt.Sprintf("inject-crash: now=%d commits=%d ops=%d", e.Cycle, e.A, e.B)
	case KLLCEvict:
		return fmt.Sprintf("llc-evict: line=%v now=%d", e.Addr, e.Cycle)
	case KFlushBitSet:
		return fmt.Sprintf("flush-bit-set: core=%d line=%v entries=%d now=%d", e.Core, e.Addr, e.A, e.Cycle)
	case KFlushBitClear:
		return fmt.Sprintf("flush-bit-clear: core=%d entries=%d now=%d", e.Core, e.A, e.Cycle)
	case KWPQWrite:
		return fmt.Sprintf("wpq-write: ch=%d depth=%d stall=%d bytes=%d now=%d", e.Core, e.A, e.B, e.C, e.Cycle)
	case KPMBufOpen:
		return fmt.Sprintf("pmbuf-open: base=%v bytes=%d now=%d", e.Addr, e.A, e.Cycle)
	case KPMBufMerge:
		return fmt.Sprintf("pmbuf-merge: base=%v bytes=%d now=%d", e.Addr, e.A, e.Cycle)
	case KPMBufWriteback:
		return fmt.Sprintf("pmbuf-writeback: base=%v programmed=%d suppressed=%d reqs=%d now=%d", e.Addr, e.A, e.B, e.C, e.Cycle)
	case KCrashEnergy:
		return fmt.Sprintf("crash-energy: requested=%d allowed=%d critical=%d now=%d", e.A, e.B, e.C, e.Cycle)
	case KLogBufOcc:
		return fmt.Sprintf("logbuf-occ: core=%d occ=%d/%d now=%d", e.Core, e.A, e.B, e.Cycle)
	case KLogOverflow:
		return fmt.Sprintf("log-overflow: core=%d evicted=%d now=%d", e.Core, e.A, e.Cycle)
	case KLogSeal:
		return fmt.Sprintf("log-seal: tid=%d records=%d bytes=%d now=%d", e.Core, e.A, e.B, e.Cycle)
	case KLogCrashFlush:
		return fmt.Sprintf("crash-append: tid=%d critical=%v records=%d", e.Core, e.B != 0, e.A)
	case KRecoveryScan:
		return fmt.Sprintf("recovery-scan: tid=%d records=%d quarantined=%d", e.Core, e.A, e.B)
	case KRecoveryApply:
		return fmt.Sprintf("recovery-apply: redo=%d undo=%d discarded=%d", e.A, e.B, e.C)
	case KRoute:
		return fmt.Sprintf("route: node=%d key=%d attempt=%d fastfail=%d now=%d", e.Core, e.A, e.B, e.C, e.Cycle)
	case KNodeQueue:
		return fmt.Sprintf("node-queue: node=%d depth=%d/%d shed=%d now=%d", e.Core, e.A, e.B, e.C, e.Cycle)
	case KNodeState:
		return fmt.Sprintf("node-state: node=%d state=%s crash=%d now=%d", e.Core, nodeStateName(e.A), e.B, e.Cycle)
	case KReplLag:
		return fmt.Sprintf("repl-lag: node=%d lag=%d queued=%d now=%d", e.Core, e.A, e.B, e.Cycle)
	}
	return fmt.Sprintf("%s: core=%d addr=%v a=%d b=%d c=%d now=%d", e.Kind, e.Core, e.Addr, e.A, e.B, e.C, e.Cycle)
}

// Sink consumes the probe-event stream. Sinks are invoked synchronously
// on the engine goroutine, in nondecreasing event time per component, and
// must not mutate the event.
type Sink interface {
	Event(e Event)
}

// Recorder fans probe events out to its sinks. The nil *Recorder is the
// disabled state: every method is a nil-check away from a return, so
// instrumented hot paths need no guards.
type Recorder struct {
	sinks []Sink
}

// NewRecorder builds a recorder over the given sinks (nil sinks are
// dropped).
func NewRecorder(sinks ...Sink) *Recorder {
	r := &Recorder{}
	for _, s := range sinks {
		if s != nil {
			r.sinks = append(r.sinks, s)
		}
	}
	return r
}

// With returns a recorder that additionally feeds s. It is nil-safe: a
// nil receiver yields a fresh recorder over s alone, which is how the
// machine grafts the audit trail onto whatever the caller configured.
func (r *Recorder) With(s Sink) *Recorder {
	if s == nil {
		return r
	}
	if r == nil {
		return NewRecorder(s)
	}
	out := &Recorder{sinks: make([]Sink, 0, len(r.sinks)+1)}
	out.sinks = append(out.sinks, r.sinks...)
	out.sinks = append(out.sinks, s)
	return out
}

// Enabled reports whether any sink is attached.
func (r *Recorder) Enabled() bool { return r != nil && len(r.sinks) > 0 }

// Emit fans one event out to every sink.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	for _, s := range r.sinks {
		s.Event(e)
	}
}

// Notef emits a formatted KNote annotation.
func (r *Recorder) Notef(now sim.Cycle, format string, args ...any) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KNote, Core: -1, Note: fmt.Sprintf(format, args...)})
}

// Typed probe helpers. Each is a thin constructor over Emit so call sites
// stay greppable and the payload conventions live in one file.

// TxBegin probes Tx_begin on a core.
func (r *Recorder) TxBegin(core int, now sim.Cycle, commits int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KTxBegin, Core: int16(core), A: commits})
}

// TxCommit probes Tx_end returning on a core.
func (r *Recorder) TxCommit(core int, now sim.Cycle, stall sim.Cycle, words int, txLat sim.Cycle) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KTxCommit, Core: int16(core), A: int64(stall), B: int64(words), C: int64(txLat)})
}

// Crash probes a power-failure injection.
func (r *Recorder) Crash(now sim.Cycle, commits, ops int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KCrash, Core: -1, A: commits, B: ops})
}

// LLCEvict probes a dirty line leaving the LLC.
func (r *Recorder) LLCEvict(now sim.Cycle, la mem.Addr) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KLLCEvict, Core: -1, Addr: la})
}

// FlushBitSet probes flush-bits set on a core's in-flight log entries.
func (r *Recorder) FlushBitSet(core int, now sim.Cycle, la mem.Addr, entries int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KFlushBitSet, Core: int16(core), Addr: la, A: int64(entries)})
}

// FlushBitClear probes log-buffer deallocation at Tx_begin.
func (r *Recorder) FlushBitClear(core int, now sim.Cycle, entries int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KFlushBitClear, Core: int16(core), A: int64(entries)})
}

// WPQWrite probes one write accepted into a WPQ channel.
func (r *Recorder) WPQWrite(channel int, accept sim.Cycle, depth int, stall sim.Cycle, bytes int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: accept, Kind: KWPQWrite, Core: int16(channel), A: int64(depth), B: int64(stall), C: int64(bytes)})
}

// PMBufOpen probes a fresh on-PM buffer line.
func (r *Recorder) PMBufOpen(now sim.Cycle, base mem.Addr, bytes int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KPMBufOpen, Core: -1, Addr: base, A: int64(bytes)})
}

// PMBufMerge probes a coalesced on-PM buffer write.
func (r *Recorder) PMBufMerge(now sim.Cycle, base mem.Addr, bytes int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KPMBufMerge, Core: -1, Addr: base, A: int64(bytes)})
}

// PMBufWriteback probes an on-PM buffer line draining to the media.
func (r *Recorder) PMBufWriteback(now sim.Cycle, base mem.Addr, programmed, suppressed, requests int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KPMBufWriteback, Core: -1, Addr: base,
		A: int64(programmed), B: int64(suppressed), C: int64(requests)})
}

// CrashEnergy probes one crash-flush write drawing on the battery budget.
func (r *Recorder) CrashEnergy(now sim.Cycle, requested, allowed int, critical bool) {
	if r == nil {
		return
	}
	c := int64(0)
	if critical {
		c = 1
	}
	r.Emit(Event{Cycle: now, Kind: KCrashEnergy, Core: -1, A: int64(requested), B: int64(allowed), C: c})
}

// LogBufOcc samples a core's log-buffer occupancy after a change.
func (r *Recorder) LogBufOcc(core int, now sim.Cycle, occ, capacity int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KLogBufOcc, Core: int16(core), A: int64(occ), B: int64(capacity)})
}

// LogOverflow probes a batched overflow eviction.
func (r *Recorder) LogOverflow(core int, now sim.Cycle, evicted int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KLogOverflow, Core: int16(core), A: int64(evicted)})
}

// LogSeal probes sealed records appended to the PM log region.
func (r *Recorder) LogSeal(tid int, now sim.Cycle, records, bytes int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KLogSeal, Core: int16(tid), A: int64(records), B: int64(bytes)})
}

// LogCrashFlush probes a battery-powered crash-flush append.
func (r *Recorder) LogCrashFlush(tid int, now sim.Cycle, records int, critical bool) {
	if r == nil {
		return
	}
	b := int64(0)
	if critical {
		b = 1
	}
	r.Emit(Event{Cycle: now, Kind: KLogCrashFlush, Core: int16(tid), A: int64(records), B: b})
}

// RecoveryScan probes one thread's checked log scan.
func (r *Recorder) RecoveryScan(tid int, now sim.Cycle, records, quarantined int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KRecoveryScan, Core: int16(tid), A: int64(records), B: int64(quarantined)})
}

// RecoveryApply probes a recovery pass's replay totals.
func (r *Recorder) RecoveryApply(now sim.Cycle, redo, undo, discarded int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KRecoveryApply, Core: -1, A: int64(redo), B: int64(undo), C: int64(discarded)})
}

// Cluster node availability states carried by KNodeState.A.
const (
	NodeUp         = 0
	NodeDown       = 1
	NodeRecovering = 2
)

func nodeStateName(a int64) string {
	switch a {
	case NodeUp:
		return "up"
	case NodeDown:
		return "down"
	case NodeRecovering:
		return "recovering"
	}
	return fmt.Sprintf("state(%d)", a)
}

// Route probes a cluster router decision for one request attempt.
func (r *Recorder) Route(node int, now sim.Cycle, key uint64, attempt int, fastFail bool) {
	if r == nil {
		return
	}
	c := int64(0)
	if fastFail {
		c = 1
	}
	r.Emit(Event{Cycle: now, Kind: KRoute, Core: int16(node), A: int64(key & 0x7fffffff), B: int64(attempt), C: c})
}

// NodeQueue samples a cluster node's request-queue depth after a change.
func (r *Recorder) NodeQueue(node int, now sim.Cycle, depth, capacity int, shed bool) {
	if r == nil {
		return
	}
	c := int64(0)
	if shed {
		c = 1
	}
	r.Emit(Event{Cycle: now, Kind: KNodeQueue, Core: int16(node), A: int64(depth), B: int64(capacity), C: c})
}

// NodeState probes a cluster node availability transition.
func (r *Recorder) NodeState(node int, now sim.Cycle, state int, crashOrdinal int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KNodeState, Core: int16(node), A: int64(state), B: int64(crashOrdinal)})
}

// ReplLag probes one replication apply landing on a replica: the lag
// from the primary commit to the durable apply, and the queue behind it.
func (r *Recorder) ReplLag(node int, now sim.Cycle, lag int64, queued int) {
	if r == nil {
		return
	}
	r.Emit(Event{Cycle: now, Kind: KReplLag, Core: int16(node), A: lag, B: int64(queued)})
}

// Instrumented is implemented by components that accept a recorder after
// construction (logging designs, notably, are built behind a Factory that
// predates the machine's recorder).
type Instrumented interface {
	SetTelemetry(*Recorder)
}
