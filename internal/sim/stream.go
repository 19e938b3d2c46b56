package sim

import (
	"fmt"
	"math/rand"

	"silo/internal/mem"
)

// NewStream runs a workload written as a sequence of units (typically
// one transaction each) as core's OpStream. It is the one way a workload
// written against a Ctx runs on the engine; the stream must be driven by
// an Engine, whose Bind hands it the executor it answers loads from.
//
// unit issues one unit's ops through ctx and reports whether more units
// follow; the ops of the call that returns false still run. The stream
// calls unit on the engine goroutine only when its op buffer is empty,
// so every op of the previous unit has executed. A load is answered at
// issue: each core's data is private to it (§III-A isolation; pmheap
// gives every core its own arena), so its value cannot depend on timing,
// and it is the newest store to that word in the buffer, else
// Executor.Peek, the golden state of every op already executed. The
// engine drains the buffer in program order, one scheduling decision per
// op, so ops execute at the times and in the order a suspend-per-op
// transport gives them, with the same rand draws. Deliver checks each
// executed load against the value the unit was given, so every load is
// an oracle of the timed machine against the golden state, and panics
// with a *LoadMismatchError on a difference. A crash drops the buffer:
// ops past the crash never reach the executor.
//
// A unit that issues more than maxUnitOps ops panics with a
// *UnitOverflowError (a livelock inside one unit); a stream of units
// that never ends is stopped by the sim-cycle watchdog.
func NewStream(core int, rng *rand.Rand, unit func(ctx *Ctx) bool) OpStream {
	s := &unitStream{core: core, unit: unit}
	s.ctx = Ctx{s: s, Rand: rng}
	return s
}

// maxUnitOps caps the ops of one unit. The largest unit of the paper
// experiments is under 2 000 ops, so the cap only trips on a unit that
// never ends.
const maxUnitOps = 1 << 16

// LoadMismatchError is the panic value of a unit stream whose load
// executed to a different value than the unit was given at issue from
// the golden state: the timed machine lost or misplaced a store (a dirty
// line dropped without a write-back, a fill from stale media), or the
// word is shared between cores.
type LoadMismatchError struct {
	Core      int
	Addr      mem.Addr
	Peeked    mem.Word // value the unit was given at issue
	Delivered mem.Word // value the executed load returned
}

func (e *LoadMismatchError) Error() string {
	return fmt.Sprintf("sim: core %d load of %v delivered %#x, program was given %#x",
		e.Core, e.Addr, uint64(e.Delivered), uint64(e.Peeked))
}

// UnitOverflowError is the panic value of a unit stream whose unit
// issued more than maxUnitOps ops.
type UnitOverflowError struct {
	Core int
	Ops  int // ops the unit had issued when it was stopped
}

func (e *UnitOverflowError) Error() string {
	return fmt.Sprintf("sim: core %d issued %d ops in one unit, cap is %d (livelock?)",
		e.Core, e.Ops, maxUnitOps)
}

type unitStream struct {
	core int
	exec Executor // set by Engine.Bind
	unit func(*Ctx) bool
	ctx  Ctx

	// buf holds the current unit's ops; a load carries the value the
	// unit was given in Data, which Next clears before the engine sees
	// the op. It is reused across units.
	buf    []Op
	head   int
	stores []int32 // buf indices of the unit's stores
	done   bool    // a unit returned false, or the machine crashed
}

// issue buffers op and returns a load's value, known at issue (see
// NewStream); the unit cannot observe the results of other ops.
func (s *unitStream) issue(op Op) mem.Word {
	if len(s.buf) == maxUnitOps {
		panic(&UnitOverflowError{Core: s.core, Ops: len(s.buf) + 1})
	}
	switch op.Kind {
	case OpLoad:
		op.Data = s.peek(op.Addr)
	case OpStore:
		s.stores = append(s.stores, int32(len(s.buf)))
	}
	s.buf = append(s.buf, op)
	return op.Data
}

// peek returns the word a load of addr issued now will read: the newest
// buffered store to it, else the executor's current view, which holds
// every op of the previous units.
func (s *unitStream) peek(addr mem.Addr) mem.Word {
	for i := len(s.stores) - 1; i >= 0; i-- {
		if op := &s.buf[s.stores[i]]; op.Addr == addr {
			return op.Data
		}
	}
	return s.exec.Peek(s.core, addr)
}

// Next implements OpStream: buffered ops drain first, in program order;
// an empty buffer calls unit until it issues an op or ends the stream.
func (s *unitStream) Next() (Op, bool) {
	if s.head == len(s.buf) {
		s.buf, s.stores, s.head = s.buf[:0], s.stores[:0], 0
		for len(s.buf) == 0 {
			if s.done {
				return Op{}, false
			}
			s.done = !s.unit(&s.ctx)
		}
	}
	op := s.buf[s.head]
	s.head++
	if op.Kind == OpLoad {
		op.Data = 0
	}
	return op, true
}

// Deliver implements OpStream. A load's result must equal the value the
// unit was given at issue; other results carry no information. The
// crash sentinel drops the buffer and ends the stream.
func (s *unitStream) Deliver(r Result) {
	if r.Latency < 0 {
		s.buf, s.head, s.done = s.buf[:0], 0, true
		return
	}
	if op := &s.buf[s.head-1]; op.Kind == OpLoad && op.Data != r.Value {
		panic(&LoadMismatchError{Core: s.core, Addr: op.Addr, Peeked: op.Data, Delivered: r.Value})
	}
}

// OpsStream is a native OpStream over a fixed operation sequence (trace
// replay, generated schedules): a cursor over a slice, with no unit
// function or per-op allocation at all.
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
