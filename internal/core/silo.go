// Package core implements Silo, the paper's contribution: a speculative
// hardware logging design that keeps a transaction's undo+redo logs in a
// small battery-backed on-chip log buffer and — in the common failure-free
// case — uses the *new data* recorded in those logs to in-place update the
// PM data region after commit ("Log as Data", §III). Logs reach the PM log
// region only on log-buffer overflow (batched undo eviction, §III-F) or at
// a crash (selective flushing, §III-G).
package core

import (
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/telemetry"
	"slices"
)

// Options tunes Silo; the zero value gives the paper's configuration.
// The Disable* switches exist for the ablation benchmarks.
type Options struct {
	// AckCycles is the on-chip round trip between log generator and log
	// controller at Tx_end ("several cycles", §III-D). Default 6.
	AckCycles sim.Cycle
	// DisableMerge turns off log merging (§III-C ablation).
	DisableMerge bool
	// DisableIgnore turns off log ignorance (§III-C ablation).
	DisableIgnore bool
	// SingleEntryOverflow evicts one entry at a time instead of the
	// batched N = ⌊S/18⌋ eviction (§III-F ablation).
	SingleEntryOverflow bool

	// DebugSkipFlushBit deliberately skips setting flush-bits on
	// cacheline eviction — a seeded §III-D bug the audit layer must
	// catch (it causes no data corruption, only protocol violation:
	// the post-commit flush redundantly rewrites the same values).
	DebugSkipFlushBit bool
	// DebugRedoBeforeCommit deliberately inverts the §III-G crash-flush
	// order, streaming redo records before the commit ID tuple — a
	// seeded bug the audit layer must catch at the crash flush itself
	// (golden-shadow only sees it if the tuple then happens to tear).
	DebugRedoBeforeCommit bool
}

type coreState struct {
	buf  *logging.Buffer
	txid uint16
	inTx bool

	// Committed-but-not-yet-deallocated window (§III-D): the new data
	// have been handed to the WPQ; the buffer frees once accepted.
	pending     bool
	flushDoneAt sim.Cycle
	overflowed  bool // current tx spilled undo logs to the log region

	// Per-transaction accounting for Fig. 13.
	txTotal int64 // entries the log generator produced this tx
}

// Silo is the design. One instance serves all cores; state is per core,
// mirroring the per-core log buffers and the per-MC log controller.
type Silo struct {
	env    *logging.Env
	opts   Options
	cores  []coreState
	batchN int // overflow batch size N = ⌊S/18⌋

	created, ignored, merged int64
	overflows, flushBitSets  int64
	crashFlushedImages       int64

	tel *telemetry.Recorder

	// Fig. 13 accumulators.
	txCount      int64
	sumTotal     int64
	sumRemaining int64
	maxRemaining int

	// Commit-path scratch, reused across transactions so the post-commit
	// flush allocates nothing in steady state (the engine is single-
	// threaded, so one set serves all cores).
	runScratch []wordKV
	runs       []wordRun
	runBytes   []byte

	// Overflow-path scratch: the evicted batch and its undo images.
	// Region.Append keeps neither slice.
	evicted []logging.Entry
	images  []logging.Image
}

var _ logging.Design = (*Silo)(nil)

// New builds Silo over env.
func New(env *logging.Env, opts Options) *Silo {
	if opts.AckCycles == 0 {
		opts.AckCycles = 6
	}
	s := &Silo{
		env:    env,
		opts:   opts,
		batchN: env.PM.Config().BufLineSize / logging.UndoBytes,
	}
	if s.batchN < 1 {
		s.batchN = 1
	}
	entries := env.LogBufEntries
	if entries <= 0 {
		entries = logging.DefaultBufferEntries
	}
	for i := 0; i < env.Cores; i++ {
		s.cores = append(s.cores, coreState{buf: logging.NewBuffer(entries)})
	}
	return s
}

// Factory returns a design factory with fixed options.
func Factory(opts Options) logging.Factory {
	return func(env *logging.Env) logging.Design { return New(env, opts) }
}

// Name implements logging.Design.
func (s *Silo) Name() string { return "Silo" }

// SetTelemetry implements telemetry.Instrumented: the machine attaches
// its recorder after the design factory has run.
func (s *Silo) SetTelemetry(r *telemetry.Recorder) { s.tel = r }

// BatchN returns the overflow batch size (exported for tests: 14 entries
// for a 256 B on-PM-buffer line).
func (s *Silo) BatchN() int { return s.batchN }

// TxBegin deallocates a committed predecessor's buffer (waiting out the
// tail of its background flush if it has not been accepted yet — normally
// already past) and opens a new transaction.
func (s *Silo) TxBegin(core int, now sim.Cycle) sim.Cycle {
	st := &s.cores[core]
	var stall sim.Cycle
	if st.pending {
		if st.flushDoneAt > now {
			stall = st.flushDoneAt - now
		}
		s.dealloc(core, now)
	}
	st.inTx = true
	st.txid++
	st.txTotal = 0
	st.overflowed = false
	return stall
}

// dealloc frees the buffer after the background flush and truncates the
// thread's log area if the committed transaction had overflowed (§III-F:
// "the overflowed logs are deleted after commit if no crash occurs").
func (s *Silo) dealloc(core int, now sim.Cycle) {
	st := &s.cores[core]
	if n := st.buf.Len(); n > 0 {
		s.tel.FlushBitClear(core, now, n)
	}
	st.buf.Reset()
	s.tel.LogBufOcc(core, now, 0, st.buf.Cap())
	st.pending = false
	if st.overflowed {
		s.env.Region.Truncate(core)
		st.overflowed = false
	}
}

// Store runs the log generator (§III-B): capture old+new, apply log
// ignorance and merging, and append to the log buffer, evicting a batch of
// undo logs on overflow. The CPU store never stalls on any of this — the
// log path bypasses the caches and runs in parallel with execution.
func (s *Silo) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	st := &s.cores[core]
	if !st.inTx {
		return 0 // non-transactional store: no logging required
	}
	s.created++
	st.txTotal++
	if !s.opts.DisableIgnore && old == new {
		s.ignored++ // log ignorance: the write does not change the word
		return 0
	}
	e := logging.Entry{TID: uint8(core), TxID: st.txid, Addr: addr.Word(), Old: old, New: new}
	if !s.opts.DisableMerge && st.buf.Match(e.Addr) >= 0 {
		st.buf.Append(e) // merges: keeps oldest old, takes newest new
		s.merged++
		return 0
	}
	if st.buf.Full() {
		s.overflow(core, now)
	}
	st.buf.Push(e)
	s.tel.LogBufOcc(core, now, st.buf.Len(), st.buf.Cap())
	return 0
}

// overflow evicts the oldest undo logs to the PM log region in a batch
// (§III-F). For each evicted entry: if its flush-bit is 0, the flush-bit
// is set and the new data word is written to the data region to preserve
// durability; if 1, the cacheline already carried the data to PM and the
// new data is discarded. The batch write and subsequent appends proceed in
// parallel, so the core does not stall.
func (s *Silo) overflow(core int, now sim.Cycle) {
	st := &s.cores[core]
	n := s.batchN
	if s.opts.SingleEntryOverflow {
		n = 1
	}
	evicted := st.buf.EvictOldest(s.evicted[:0], n)
	images := s.images[:0]
	for _, e := range evicted {
		if !e.FlushBit {
			var b [mem.WordSize]byte
			putWord(b[:], e.New)
			s.env.PM.Write(now, e.Addr, b[:])
		}
		e.FlushBit = true // overflowed undo logs carry flush-bit 1 (§III-G)
		images = append(images, e.UndoImage())
	}
	s.env.Region.Append(now, core, images)
	s.evicted, s.images = evicted, images
	st.overflowed = true
	s.overflows++
	s.tel.LogOverflow(core, now, len(evicted))
	s.tel.LogBufOcc(core, now, st.buf.Len(), st.buf.Cap())
}

// TxEnd implements the commit protocol of §III-D: the log generator
// notifies the log controller, which ACKs and concurrently starts flushing
// the new data in the logs to the data region. The core resumes after the
// ACK — a few cycles — because the new data are already persistent inside
// the battery-backed buffer; nothing orders commit behind PM writes.
func (s *Silo) TxEnd(core int, now sim.Cycle) sim.Cycle {
	st := &s.cores[core]
	st.inTx = false

	remaining := st.buf.Len()
	s.txCount++
	s.sumTotal += st.txTotal
	s.sumRemaining += int64(remaining)
	if remaining > s.maxRemaining {
		s.maxRemaining = remaining
	}

	flushDone := now
	for _, run := range s.contiguousRuns(st.buf.Entries()) {
		accept, _ := s.env.PM.Write(now, run.addr, run.bytes)
		if accept > flushDone {
			flushDone = accept
		}
	}
	st.pending = true
	st.flushDoneAt = flushDone
	return s.opts.AckCycles + s.env.LogBufLatency/8 // buffer read is pipelined off the critical path
}

type wordRun struct {
	addr  mem.Addr
	bytes []byte
}

// wordKV is one flush-bit-0 log word during run building; idx is the
// entry's buffer position, so newest-in-append-order wins the dedupe.
type wordKV struct {
	addr mem.Addr
	val  mem.Word
	idx  int
}

// contiguousRuns gathers the new-data words still owed to the data region
// (flush-bit 0) into maximal contiguous word runs, so words that share a
// cacheline leave the memory controller as one combined write burst. The
// entries are unique per word (merging); the merge-disabled ablation can
// produce duplicates, which dedupe keeping the newest value in append
// order. Scratch storage (including the byte arena backing the runs) is
// reused across commits; the result is valid until the next call.
func (s *Silo) contiguousRuns(entries []logging.Entry) []wordRun {
	kvs := s.runScratch[:0]
	for i, e := range entries {
		if !e.FlushBit {
			kvs = append(kvs, wordKV{addr: e.Addr, val: e.New, idx: i})
		}
	}
	slices.SortFunc(kvs, func(a, b wordKV) int {
		if a.addr != b.addr {
			return int(a.addr) - int(b.addr)
		}
		return a.idx - b.idx
	})
	s.runScratch = kvs
	// Reserve the arena up front so it never reallocates mid-loop (run
	// byte slices alias it).
	if cap(s.runBytes) < len(kvs)*mem.WordSize {
		s.runBytes = make([]byte, 0, len(kvs)*mem.WordSize)
	}
	runs, arena := s.runs[:0], s.runBytes[:0]
	for i, kv := range kvs {
		if i+1 < len(kvs) && kvs[i+1].addr == kv.addr {
			continue // duplicate word: a newer append follows
		}
		n := len(runs)
		if n > 0 && runs[n-1].addr+mem.Addr(len(runs[n-1].bytes)) == kv.addr &&
			runs[n-1].addr.Line() == kv.addr.Line() {
			arena = appendWord(arena, kv.val)
			runs[n-1].bytes = runs[n-1].bytes[:len(runs[n-1].bytes)+mem.WordSize]
			continue
		}
		start := len(arena)
		arena = appendWord(arena, kv.val)
		runs = append(runs, wordRun{addr: kv.addr, bytes: arena[start:len(arena)]})
	}
	s.runs, s.runBytes = runs, arena
	return runs
}

// appendWord appends v's little-endian bytes to b.
func appendWord(b []byte, v mem.Word) []byte {
	var w [mem.WordSize]byte
	putWord(w[:], v)
	return append(b, w[:]...)
}

// CachelineEvicted routes a dirty LLC eviction to the PM data region and
// sets the flush-bit on any in-flight logs covering the line (§III-D), so
// their new data is not redundantly flushed after commit.
func (s *Silo) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	s.env.PM.Write(now, la, data[:])
	if s.opts.DebugSkipFlushBit {
		return
	}
	for c := range s.cores {
		st := &s.cores[c]
		if !st.inTx {
			continue
		}
		set := 0
		st.buf.MatchLine(la, func(e *logging.Entry) {
			if !e.FlushBit {
				e.FlushBit = true
				s.flushBitSets++
				set++
			}
		})
		if set > 0 {
			s.tel.FlushBitSet(c, now, la, set)
		}
	}
}

// Crash performs the selective log flushing of §III-G under battery power:
// undo logs for transactions that had not committed (atomicity), redo logs
// plus an ID tuple for committed transactions whose in-place updates were
// still pending (durability). Flush-bit-1 entries contribute no redo —
// their data already reached PM via cacheline eviction.
//
// The flush order is robustness-critical under a bounded energy budget:
// the commit ID tuple goes out *first*, because recovery's checked scan
// stops at the first torn record — a tuple behind a torn redo suffix
// would be invisible, and the transaction's overflowed flush-bit-1 undo
// logs would wrongly revoke committed data. The tuple and all undo logs
// are the must-flush set the battery reserve guarantees (critical); the
// redo stream may tear, which recovery tolerates because WPQ-accepted
// in-place updates are already durable under ADR.
func (s *Silo) Crash(now sim.Cycle) {
	for c := range s.cores {
		st := &s.cores[c]
		switch {
		case st.inTx:
			images := make([]logging.Image, 0, st.buf.Len())
			for _, e := range st.buf.Entries() {
				images = append(images, e.UndoImage())
			}
			s.env.Region.AppendAtCrashCritical(c, images)
			s.crashFlushedImages += int64(len(images))
		case st.pending:
			var images []logging.Image
			for _, e := range st.buf.Entries() {
				if !e.FlushBit {
					images = append(images, e.RedoImage())
				}
			}
			tuple := []logging.Image{logging.CommitImage(uint8(c), st.txid)}
			if s.opts.DebugRedoBeforeCommit {
				s.env.Region.AppendAtCrash(c, images)
				s.env.Region.AppendAtCrashCritical(c, tuple)
			} else {
				s.env.Region.AppendAtCrashCritical(c, tuple)
				s.env.Region.AppendAtCrash(c, images)
			}
			s.crashFlushedImages += int64(len(images)) + 1
		}
	}
}

// LogBuffer exposes core's log buffer for the audit layer (read-only
// discipline: auditors inspect, never mutate).
func (s *Silo) LogBuffer(core int) *logging.Buffer { return s.cores[core].buf }

// InTx reports whether core has an open transaction (audit layer).
func (s *Silo) InTx(core int) bool { return s.cores[core].inTx }

// MergeEnabled reports whether comparator merging is active (§III-C).
func (s *Silo) MergeEnabled() bool { return !s.opts.DisableMerge }

// CollectStats implements logging.Design.
func (s *Silo) CollectStats(r *stats.Run) {
	r.LogEntriesCreated += s.created
	r.LogEntriesIgnored += s.ignored
	r.LogEntriesMerged += s.merged
	r.LogEntriesFlushed += s.env.Region.ImagesWritten
	r.LogOverflows += s.overflows
	r.FlushBitSets += s.flushBitSets
}

// LogReduction reports the Fig. 13 quantities: average log entries
// produced per transaction, average entries remaining in the buffer at
// commit, and the maximum remaining (which sizes the buffer).
func (s *Silo) LogReduction() (avgTotal, avgRemaining float64, maxRemaining int) {
	if s.txCount == 0 {
		return 0, 0, 0
	}
	return float64(s.sumTotal) / float64(s.txCount),
		float64(s.sumRemaining) / float64(s.txCount),
		s.maxRemaining
}

func putWord(b []byte, w mem.Word) {
	for i := 0; i < mem.WordSize; i++ {
		b[i] = byte(w >> (8 * i))
	}
}
