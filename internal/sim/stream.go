package sim

import (
	"fmt"
	"iter"
	"math/rand"

	"silo/internal/mem"
)

// NewProgramStream runs a Program as a pull-based OpStream on a runtime
// coroutine (iter.Pull). It is the one way a Program runs on the engine;
// the stream must be driven by an Engine, whose Bind hands it the
// executor it answers loads from.
//
// A program never suspends for a load. Each core's data is private to it
// (§III-A isolation; pmheap gives every core its own arena), so a load's
// value cannot depend on timing, and issue answers it at once: from the
// newest store to that word still queued, else from Executor.Peek, the
// golden state of every op already executed. Every op is queued, and the
// program suspends only when maxRunAhead ops are queued or when it
// returns. The engine drains the queue in program order, one scheduling
// decision per op, so ops execute at the times and in the order a
// suspend-per-op transport gives them, with the same rand draws. Deliver
// checks each executed load against the value the program was given, so
// every load is an oracle of the timed machine against the golden
// state, and panics with a *LoadMismatchError on a difference. A crash
// unwinds the frame up to maxRunAhead ops later on the host; queued ops
// past the crash never reach the executor.
func NewProgramStream(core int, rng *rand.Rand, p Program) OpStream {
	s := &coroStream{core: core}
	ctx := &Ctx{core: core, issue: s.issue, Rand: rng}
	s.next, s.stop = iter.Pull(func(yield func(struct{}) bool) {
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

// maxRunAhead bounds how many ops a program may queue before it
// suspends, loads included: a program switches once per maxRunAhead ops,
// or at its end. The bound keeps a program that never ends (a livelock
// spinning on loads or Compute) from running ahead of the engine without
// limit, so the sim-cycle watchdog still fires, and it bounds the host
// work a crash throws away.
const maxRunAhead = 64

// LoadMismatchError is the panic value of a program stream whose load
// executed to a different value than the program was given at issue from
// the golden state: the timed machine lost or misplaced a store (a dirty
// line dropped without a write-back, a fill from stale media), or the
// word is shared between cores.
type LoadMismatchError struct {
	Core      int
	Addr      mem.Addr
	Peeked    mem.Word // value the program was given at issue
	Delivered mem.Word // value the executed load returned
}

func (e *LoadMismatchError) Error() string {
	return fmt.Sprintf("sim: core %d load of %v delivered %#x, program was given %#x",
		e.Core, e.Addr, uint64(e.Delivered), uint64(e.Peeked))
}

type coroStream struct {
	core  int
	exec  Executor // set by Engine.Bind
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// queue holds the ops issued since the last suspension; a queued
	// load carries the value the program was given in Data, which Next
	// clears before the engine sees the op.
	queue   [maxRunAhead]Op
	n, head int
	stores  [maxRunAhead]uint8 // queue indices of the queued stores
	nstores int
	done    bool
}

// issue queues op and answers it: a load's value is known at issue time
// (see NewProgramStream), and the program cannot observe the results of
// other ops (Ctx discards them). A full queue suspends the program; a
// false yield means the engine stopped pulling (a crash sentinel or
// Stop), which unwinds the program through ErrCrashed, recovered by the
// coroutine body.
func (s *coroStream) issue(op Op) Result {
	if s.done {
		panic(ErrCrashed)
	}
	var r Result
	switch op.Kind {
	case OpLoad:
		r.Value = s.peek(op.Addr)
		op.Data = r.Value
	case OpStore:
		s.stores[s.nstores] = uint8(s.n)
		s.nstores++
	}
	s.queue[s.n] = op
	s.n++
	if s.n == maxRunAhead && !s.yield(struct{}{}) {
		panic(ErrCrashed)
	}
	return r
}

// peek returns the word a load of addr issued now will read: the newest
// queued store to it, else the executor's current view. Only the queue
// needs scanning — every op the engine took from it before the program
// resumed has executed.
func (s *coroStream) peek(addr mem.Addr) mem.Word {
	for i := s.nstores - 1; i >= 0; i-- {
		if op := &s.queue[s.stores[i]]; op.Addr == addr {
			return op.Data
		}
	}
	return s.exec.Peek(s.core, addr)
}

// Next implements OpStream: queued ops drain first, in program order;
// an empty queue resumes the program until it fills the queue again or
// returns.
func (s *coroStream) Next() (Op, bool) {
	if s.head == s.n {
		if s.done {
			return Op{}, false
		}
		s.n, s.head, s.nstores = 0, 0, 0
		if _, ok := s.next(); !ok {
			// The program returned; drain what it queued last.
			s.done = true
			if s.n == 0 {
				return Op{}, false
			}
		}
	}
	op := s.queue[s.head]
	s.head++
	if op.Kind == OpLoad {
		op.Data = 0
	}
	return op, true
}

// Deliver implements OpStream. A load's result must equal the value the
// program was given at issue; other results carry no information. The
// crash sentinel releases the suspended frame and ends the stream.
func (s *coroStream) Deliver(r Result) {
	if r.Latency < 0 {
		s.n, s.head = 0, 0
		s.done = true
		s.stop() // unwind the frame wherever it is suspended
		return
	}
	if op := &s.queue[s.head-1]; op.Kind == OpLoad && op.Data != r.Value {
		panic(&LoadMismatchError{Core: s.core, Addr: op.Addr, Peeked: op.Data, Delivered: r.Value})
	}
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
