package sim

import (
	"iter"
	"math/rand"
)

// NewProgramStream runs a Program as a pull-based OpStream on a runtime
// coroutine (iter.Pull): the program's control flow is suspended when it
// needs a result and resumed when the engine delivers it. The handoff is
// a direct coroutine switch — no channel operations, no scheduler round
// trip, and no heap allocations per op — which is what makes
// control-flow-heavy workloads (tree descents, chain walks) cheap to
// drive. It is the one way a Program runs on the engine.
//
// The program suspends only at a load (its value is the program's next
// input) and at a non-load op that finds maxRunAhead ops already queued.
// Stores, Tx markers and compute ops return nothing a program can observe
// (Ctx discards their Results), so issue queues them and returns at once;
// the engine drains the queue in program order, one scheduling decision
// per op, before the next switch. The bound keeps a program that never
// loads (a livelock spinning on Compute, a store-only sweep) from running
// ahead of the engine without limit, so the sim-cycle watchdog still
// fires. The op sequence and every rand draw are those of a
// suspend-per-op transport; a crash unwinds the program frame up to
// maxRunAhead ops later on the host, and queued ops past the crash never
// reach the executor.
func NewProgramStream(core int, rng *rand.Rand, p Program) OpStream {
	s := &coroStream{}
	ctx := &Ctx{core: core, issue: s.issue, Rand: rng}
	s.next, s.stop = iter.Pull(func(yield func(Op) bool) {
		s.yield = yield
		defer func() {
			if r := recover(); r != nil && r != ErrCrashed { //nolint:errorlint
				panic(r)
			}
		}()
		p(ctx)
	})
	return s
}

// maxRunAhead bounds how many non-load ops a coroutine program may issue
// without suspending. Apart from the Fig. 14 sweep (one store run per
// transaction), the longest run in any first-party workload is 43 ops
// (BPtree node splits; Rtree 20, TPCC 6), so the bound costs those
// workloads no extra switches.
const maxRunAhead = 64

type coroStream struct {
	next  func() (Op, bool)
	stop  func()
	yield func(Op) bool
	res   Result

	queue      []Op // non-load ops issued since the last suspension (≤ maxRunAhead)
	head       int
	pending    Op // op yielded while queued ops were still undelivered
	hasPending bool
	done       bool
}

// issue hands op to the engine. Loads suspend the program and return the
// delivered result; everything else is queued and returns immediately
// (the program cannot observe those results) until the queue holds
// maxRunAhead ops, when it suspends like a load. A false yield means the
// engine stopped pulling (Stop); a negative latency is the crash
// sentinel. Both unwind the program through ErrCrashed, which the
// coroutine body recovers.
func (s *coroStream) issue(op Op) Result {
	if s.done {
		panic(ErrCrashed)
	}
	if op.Kind != OpLoad && len(s.queue) < maxRunAhead {
		s.queue = append(s.queue, op)
		return Result{}
	}
	if !s.yield(op) {
		panic(ErrCrashed)
	}
	if s.res.Latency < 0 {
		panic(ErrCrashed)
	}
	return s.res
}

// Next implements OpStream: queued ops drain first (program order), then
// the program resumes until its next operation or completion.
func (s *coroStream) Next() (Op, bool) {
	for {
		if s.head < len(s.queue) {
			op := s.queue[s.head]
			s.head++
			return op, true
		}
		s.queue, s.head = s.queue[:0], 0
		if s.hasPending {
			s.hasPending = false
			return s.pending, true
		}
		if s.done {
			return Op{}, false
		}
		op, ok := s.next()
		if !ok {
			// The program returned; ops it issued after its last load
			// are still in the queue — loop to drain them.
			s.done = true
			continue
		}
		if len(s.queue) > 0 {
			// Ops queued before this one must execute first.
			s.pending, s.hasPending = op, true
			continue
		}
		return op, true
	}
}

// Deliver implements OpStream. Load results are picked up by issue when
// the program resumes; results of queued ops carry no information. The
// crash sentinel releases the suspended frame and ends the stream.
func (s *coroStream) Deliver(r Result) {
	if r.Latency < 0 {
		s.queue, s.head, s.hasPending = s.queue[:0], 0, false
		s.done = true
		s.stop() // unwind the frame wherever it is suspended
		return
	}
	s.res = r
}

// Stop releases a still-suspended program frame (abnormal engine unwind).
func (s *coroStream) Stop() { s.stop() }

// OpsStream is a native OpStream over a fixed operation sequence (trace
// replay, generated schedules): a cursor over a slice, with no goroutine,
// coroutine, or per-op allocation at all.
type OpsStream struct {
	ops []Op
	i   int
}

// NewOpsStream returns a stream replaying ops in order.
func NewOpsStream(ops []Op) *OpsStream { return &OpsStream{ops: ops} }

// Next implements OpStream.
func (s *OpsStream) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// Deliver implements OpStream: results carry no data dependence for a
// fixed sequence, except the crash sentinel, which ends the stream.
func (s *OpsStream) Deliver(r Result) {
	if r.Latency < 0 {
		s.i = len(s.ops)
	}
}
