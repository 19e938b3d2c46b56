// Package sim provides the discrete-event simulation engine underneath the
// Silo reproduction: deterministic multi-core scheduling at memory-operation
// granularity, a cycle clock, and shared-resource service queues.
//
// The engine is a single-goroutine cooperative scheduler: each simulated
// core exposes its workload as a pull-based OpStream, and the engine
// repeatedly executes the next operation of the core with the smallest
// local time, so runs are deterministic for a given seed and shared-queue
// contention is causal: reservations on shared resources are made in
// nondecreasing global time. The pick is a branch-free scan over a dense
// array of per-core due times (a core's local time while it holds a
// fetched op, the maximum Cycle once its stream is done); ties go to the
// lowest core index. The steady-state path performs zero channel
// operations and zero heap allocations per op.
//
// A workload written as plain Go functions (units, typically one
// transaction each, issuing operations through a Ctx) becomes an
// OpStream through NewStream, which calls the next unit only once every
// op of the previous one has executed, and answers its loads at issue
// time (each core's data is private, so a load's value never depends on
// timing). A workload whose op sequence needs no Go frame may implement
// OpStream directly.
package sim

import (
	"math"
	"math/rand"
	"sync/atomic"

	"silo/internal/mem"
)

// Cycle is a point in simulated time, measured in CPU cycles (2 GHz in the
// default configuration, so 1 cycle = 0.5 ns).
type Cycle int64

// OpKind enumerates the operations a core can issue.
type OpKind uint8

const (
	// OpLoad reads one 8-byte word.
	OpLoad OpKind = iota
	// OpStore writes one 8-byte word.
	OpStore
	// OpTxBegin marks the beginning of a durable transaction (Tx_begin).
	OpTxBegin
	// OpTxEnd marks transaction commit (Tx_end).
	OpTxEnd
	// OpCompute consumes a fixed number of cycles without touching memory.
	OpCompute
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpTxBegin:
		return "tx_begin"
	case OpTxEnd:
		return "tx_end"
	case OpCompute:
		return "compute"
	}
	return "unknown"
}

// Op is one operation issued by a core.
type Op struct {
	Kind   OpKind
	Addr   mem.Addr // word-aligned for loads/stores
	Data   mem.Word // store payload
	Cycles Cycle    // compute duration
}

// Result is the executor's reply to one operation.
type Result struct {
	Latency Cycle    // cycles the core is stalled by this op
	Value   mem.Word // loaded value (OpLoad only)
}

// Executor executes operations against the simulated machine (caches,
// logging hardware, memory controller, PM). Exec is called with
// operations in nondecreasing `now` order across all cores. Peek returns
// the word a load of addr by core must read if executed now, with no
// side effects and no timing, from the golden state rather than the
// timed machine: core's pending store to the word, else its last
// committed or stored value, else the device. Unit streams (NewStream)
// answer loads with it at issue time and hold each executed load to it.
type Executor interface {
	Exec(core int, op Op, now Cycle) Result
	Peek(core int, addr mem.Addr) mem.Word
}

// OpStream is one core's workload as a pull-based operation stream — the
// interface the cooperative engine drives directly.
//
// The engine alternates Next and Deliver: Next returns the core's next
// operation (false when the stream is exhausted), the engine executes it,
// and Deliver hands back the result before the next Next. A Result with
// negative Latency is the crash sentinel: the machine lost power, the
// operation did not execute, and the stream must return false from every
// subsequent Next call.
type OpStream interface {
	Next() (Op, bool)
	Deliver(Result)
}

// Ctx is the interface a unit (see NewStream) uses to talk to the
// engine. It is bound to one core's stream and must only be used from
// that stream's units.
type Ctx struct {
	s *unitStream
	// Rand is a per-core deterministic random source (seed + core id).
	Rand *rand.Rand
}

// CoreRand returns core i's deterministic random source for an engine
// seed — the single definition unit and native streams share, so
// both forms of a workload draw identical random sequences.
func CoreRand(seed int64, core int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(core)*1_000_003))
}

// Core returns the core index this context is bound to.
func (c *Ctx) Core() int { return c.s.core }

// Load reads the 8-byte word at addr (word-aligned).
func (c *Ctx) Load(addr mem.Addr) mem.Word {
	return c.s.issue(Op{Kind: OpLoad, Addr: addr.Word()})
}

// Store writes the 8-byte word at addr (word-aligned).
func (c *Ctx) Store(addr mem.Addr, v mem.Word) {
	c.s.issue(Op{Kind: OpStore, Addr: addr.Word(), Data: v})
}

// TxBegin starts a durable transaction on this core.
func (c *Ctx) TxBegin() { c.s.issue(Op{Kind: OpTxBegin}) }

// TxEnd commits the current transaction.
func (c *Ctx) TxEnd() { c.s.issue(Op{Kind: OpTxEnd}) }

// Compute advances this core's clock by n cycles of pure computation.
func (c *Ctx) Compute(n Cycle) {
	if n > 0 {
		c.s.issue(Op{Kind: OpCompute, Cycles: n})
	}
}

// retired is the due time of a core whose stream is exhausted. Core
// clocks start at zero and only move forward by nonnegative latencies,
// so a live core's due time is always in [0, retired) and the difference
// of two due times never overflows.
const retired = Cycle(math.MaxInt64)

// Engine drives the per-core op streams against the executor.
type Engine struct {
	exec  Executor
	cores int
	seed  int64

	crashed atomic.Bool
	// special is true when any per-op slow-path check is armed (crash
	// happened, watchdog set, or crash scheduled); Step's fast path skips
	// all three checks while it is false.
	special bool

	// Cycle-granular crash injection (ScheduleCrash).
	crashAt     Cycle
	crashInject func(now Cycle)

	// Sim-cycle watchdog (SetWatchdog).
	watchdog      Cycle
	watchdogFired bool

	// Cooperative scheduler state (Bind/Step): each core's fetched but
	// not yet executed op, and the time it is due — coreTime[i] while
	// core i holds an op, retired once its stream is exhausted.
	streams []OpStream
	ops     []Op
	due     []Cycle

	// Stats populated by the run.
	coreTime  []Cycle
	opsByKind [5]int64
}

// NewEngine creates an engine over exec with the given core count. Seed
// drives the per-core random sources handed to workloads.
func NewEngine(exec Executor, cores int, seed int64) *Engine {
	if cores < 1 {
		cores = 1
	}
	return &Engine{exec: exec, cores: cores, seed: seed, coreTime: make([]Cycle, cores)}
}

// Seed returns the engine seed (native stream builders derive per-core
// random sources from it via CoreRand).
func (e *Engine) Seed() int64 { return e.seed }

// Crash flags the machine as crashed; every stream receives the crash
// sentinel at its next operation and the run ends. Safe to call from the
// executor (which runs on the engine goroutine) or from a stop-condition
// callback.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.special = true
}

// ScheduleCrash arranges a power failure at the first scheduling point
// whose core-local time is at or after cycle c — between operations of
// the op stream, not quantized to op *counts*, so the same wall-clock
// instant hits different designs inside different operations. inject is
// called exactly once with the crash time (typically Machine.InjectCrash,
// which performs the battery flush and calls Crash); the engine then
// unwinds every core.
func (e *Engine) ScheduleCrash(c Cycle, inject func(now Cycle)) {
	e.crashAt = c
	e.crashInject = inject
	e.special = true
}

// SetWatchdog arms a sim-cycle budget: when any core's local clock
// reaches c the engine crashes the machine and ends every stream, so
// a livelocked campaign (a commit protocol that never acks, a queue that
// never drains) terminates deterministically instead of spinning its
// host forever. Zero disables the watchdog.
func (e *Engine) SetWatchdog(c Cycle) {
	e.watchdog = c
	e.special = c > 0 || e.crashInject != nil || e.crashed.Load()
}

// WatchdogFired reports whether the sim-cycle watchdog terminated the
// run.
func (e *Engine) WatchdogFired() bool { return e.watchdogFired }

// Crashed reports whether a crash has been injected.
func (e *Engine) Crashed() bool { return e.crashed.Load() }

// Now returns the maximum core-local time observed so far — the "wall
// clock" of the simulation.
func (e *Engine) Now() Cycle {
	var max Cycle
	for _, t := range e.coreTime {
		if t > max {
			max = t
		}
	}
	return max
}

// CoreTime returns core i's local clock.
func (e *Engine) CoreTime(i int) Cycle { return e.coreTime[i] }

// Ops returns the number of operations of kind k executed.
func (e *Engine) Ops(k OpKind) int64 { return e.opsByKind[k] }

// Bind arms the cooperative scheduler with one stream per core, hands
// each unit stream the executor it answers loads from, and prefetches
// each stream's first operation. Streams run when Step is called; most
// callers use RunStreams instead.
func (e *Engine) Bind(streams []OpStream) {
	if len(streams) != e.cores {
		panic("sim: len(streams) must equal core count")
	}
	e.streams = streams
	e.ops = make([]Op, e.cores)
	e.due = make([]Cycle, e.cores)
	for i, s := range streams {
		if us, ok := s.(*unitStream); ok {
			us.exec = e.exec
		}
		e.fetch(i)
	}
}

// fetch pulls core i's next operation, due at the core's local time,
// retiring the core when its stream is exhausted.
func (e *Engine) fetch(i int) {
	op, more := e.streams[i].Next()
	if !more {
		e.due[i] = retired
		return
	}
	e.ops[i], e.due[i] = op, e.coreTime[i]
}

// Step makes one scheduling decision: it picks the live core with the
// smallest local time and executes (or crash-unwinds) that one fetched
// operation, then refetches that core's next op — every live core always
// holds a pending op (prefetched by Bind), so the min-time choice stays
// well defined with one stream pull per step. It returns false when
// every stream is exhausted. The steady-state path performs no channel
// operations and no heap allocations.
func (e *Engine) Step() bool {
	best, bt := e.pick()
	if bt == retired {
		return false
	}
	op := e.ops[best]

	// Slow path: a crash happened, is scheduled, or a watchdog is armed.
	// All three arming points set e.special, so the common op pays one
	// branch here before it executes.
	res := Result{Latency: -1}
	if !e.special || !e.crashNow(bt) {
		res = e.exec.Exec(best, op, bt)
	}
	// A negative latency (a crash, here or executor-injected) unwinds
	// the stream without advancing time.
	if res.Latency >= 0 {
		e.opsByKind[op.Kind]++
		e.coreTime[best] = bt + res.Latency
	}
	e.streams[best].Deliver(res)
	e.fetch(best)
	return true
}

// pick returns the core with the smallest due time and that time; ties
// go to the lowest index, and bt is retired when every core is. The scan
// is branch-free: which core is due next is unpredictable, so a compare
// and jump per core mispredicts often, and Go does not turn the plain
// if into a conditional move. d cannot overflow because due times lie
// in [0, retired] (see retired); its sign bit, smeared into the mask m,
// selects the strictly earlier core. An engine not yet bound has no
// core due.
func (e *Engine) pick() (best int, bt Cycle) {
	due := e.due
	if len(due) == 0 {
		return 0, retired
	}
	bt = due[0]
	for i := 1; i < len(due); i++ {
		d := due[i] - bt
		m := d >> 63
		bt += d & m
		best ^= (best ^ i) & int(m)
	}
	return best, bt
}

// crashNow reports whether the op due at time t must receive the crash
// sentinel instead of executing: the machine has crashed, the watchdog
// budget is spent (which crashes it), or a scheduled crash is due (which
// it injects).
func (e *Engine) crashNow(t Cycle) bool {
	switch {
	case e.crashed.Load():
	case e.watchdog > 0 && t >= e.watchdog:
		e.watchdogFired = true
		e.Crash()
	case e.crashInject != nil && t >= e.crashAt:
		inject := e.crashInject
		e.crashInject = nil
		inject(t)
		if !e.crashed.Load() {
			e.Crash()
		}
	default:
		return false
	}
	return true
}

// RunStreams executes one OpStream per core to completion (or until a
// crash) on the cooperative scheduler and returns the final simulated
// time. It may be called once per Engine.
func (e *Engine) RunStreams(streams []OpStream) Cycle {
	e.Bind(streams)
	for e.Step() {
	}
	return e.Now()
}
