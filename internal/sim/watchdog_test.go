package sim

import (
	"testing"
	"time"

	"silo/internal/mem"
)

type spinExec struct{}

func (spinExec) Exec(core int, op Op, now Cycle) Result { return Result{Latency: 1} }
func (spinExec) Peek(int, mem.Addr) mem.Word            { return 0 }

// runBounded runs streams on e on another goroutine and returns the
// value it panicked with, failing the test if the host does not return.
func runBounded(t *testing.T, name string, e *Engine, streams ...OpStream) (panicked any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		e.RunStreams(streams)
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: the run did not return", name)
		return nil
	}
}

// A stream of units that never ends must be crashed and ended once the
// sim clock reaches the watchdog budget, instead of hanging the host —
// also when every unit is one load, which takes no simulated time in
// the unit itself.
func TestWatchdogKillsLivelockedProgram(t *testing.T) {
	spins := map[string]func(*Ctx) bool{
		"compute": func(ctx *Ctx) bool {
			ctx.Compute(1)
			return true
		},
		"load": func(ctx *Ctx) bool {
			ctx.Load(64)
			return true
		},
	}
	for name, spin := range spins {
		e := NewEngine(spinExec{}, 1, 1)
		e.SetWatchdog(10_000)
		if r := runBounded(t, name+" spin", e, NewStream(0, CoreRand(1, 0), spin)); r != nil {
			t.Fatalf("%s spin: panicked %v", name, r)
		}
		if !e.WatchdogFired() {
			t.Errorf("%s spin: WatchdogFired not reported", name)
		}
		if !e.Crashed() {
			t.Errorf("%s spin: watchdog kill did not mark the engine crashed", name)
		}
	}

	// A spin inside one unit never reaches the engine, so the watchdog
	// cannot see it: the unit cap stops it with a typed error.
	e := NewEngine(spinExec{}, 2, 1)
	e.SetWatchdog(10_000)
	r := runBounded(t, "in-unit spin", e,
		NewStream(0, CoreRand(1, 0), func(ctx *Ctx) bool { ctx.Compute(1); return true }),
		NewStream(1, CoreRand(1, 1), func(ctx *Ctx) bool {
			for {
				ctx.Load(64)
			}
		}))
	err, ok := r.(*UnitOverflowError)
	if !ok {
		t.Fatalf("in-unit spin: panic value %T (%v), want *UnitOverflowError", r, r)
	}
	if *err != (UnitOverflowError{Core: 1, Ops: maxUnitOps + 1}) {
		t.Errorf("in-unit spin: error %+v, want core 1 and %d ops", *err, maxUnitOps+1)
	}
}

// A program that finishes under budget must not trip the watchdog.
func TestWatchdogQuietOnNormalCompletion(t *testing.T) {
	e := NewEngine(spinExec{}, 1, 1)
	e.SetWatchdog(10_000)
	runPrograms(e, func(ctx *Ctx) { ctx.Compute(100) })
	if e.WatchdogFired() || e.Crashed() {
		t.Error("watchdog fired on a run that finished under budget")
	}
}

// Unit k+1 is called only once every op of unit k has been delivered:
// that is what lets a load be answered from the buffer and Peek, the
// golden state of every op executed. Units of 0 to 6 ops, loads reading
// back the store before them, all execute in program order.
func TestUnitCalledOnlyWhenDrained(t *testing.T) {
	const units = 200
	issued, delivered, k := 0, 0, 0
	s := NewStream(0, CoreRand(1, 0), func(ctx *Ctx) bool {
		if issued != delivered {
			t.Fatalf("unit %d called with %d ops issued and %d delivered", k, issued, delivered)
		}
		for i := 0; i < k%4; i++ {
			v := 1 + mem.Word(issued)
			ctx.Store(8, v)
			if got := ctx.Load(8); got != v {
				t.Fatalf("unit %d: load answered %d, want %d", k, got, v)
			}
			issued += 2
		}
		k++
		return k < units
	}).(*unitStream)
	s.exec = spinExec{}
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		want := Op{Kind: OpStore, Addr: 8, Data: 1 + mem.Word(delivered)}
		if delivered%2 == 1 {
			want = Op{Kind: OpLoad, Addr: 8}
		}
		if op != want {
			t.Fatalf("op %d = %+v, want %+v", delivered, op, want)
		}
		r := Result{Latency: 1}
		if op.Kind == OpLoad {
			r.Value = mem.Word(delivered) // the store just before it
		}
		delivered++
		s.Deliver(r)
	}
	if k != units || delivered != issued {
		t.Errorf("%d units called, %d of %d ops delivered; want %d units, all ops", k, delivered, issued, units)
	}
}
