package sim

import (
	"testing"
	"time"

	"silo/internal/mem"
)

type spinExec struct{}

func (spinExec) Exec(core int, op Op, now Cycle) Result { return Result{Latency: 1} }
func (spinExec) Peek(int, mem.Addr) mem.Word            { return 0 }

// A program that never terminates must be crashed and unwound once the
// sim clock reaches the watchdog budget, instead of hanging the host —
// also when it spins on loads alone, which never suspend it: only the
// maxRunAhead bound hands control back to the engine.
func TestWatchdogKillsLivelockedProgram(t *testing.T) {
	spins := map[string]Program{
		"compute": func(ctx *Ctx) {
			for {
				ctx.Compute(1)
			}
		},
		"load": func(ctx *Ctx) {
			for {
				ctx.Load(64)
			}
		},
	}
	for name, spin := range spins {
		e := NewEngine(spinExec{}, 1, 1)
		e.SetWatchdog(10_000)
		done := make(chan struct{})
		go func() {
			runPrograms(e, spin)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s spin: watchdog did not unwind the livelocked program", name)
		}
		if !e.WatchdogFired() {
			t.Errorf("%s spin: WatchdogFired not reported", name)
		}
		if !e.Crashed() {
			t.Errorf("%s spin: watchdog kill did not mark the engine crashed", name)
		}
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

// A program suspends every maxRunAhead ops, loads included, so the
// engine, not the program, sets the pace: the queue of ops issued but
// not yet executed never exceeds the bound, and every op still executes
// in program order.
func TestProgramStreamRunAheadBounded(t *testing.T) {
	const n = 10 * maxRunAhead
	issued := 0
	s := NewProgramStream(0, CoreRand(1, 0), func(ctx *Ctx) {
		for i := 0; i < n; i += 2 {
			ctx.Store(8, 1+mem.Word(i))
			ctx.Load(8)
			issued += 2
		}
	}).(*coroStream)
	s.exec = spinExec{}
	got := 0
	for {
		op, ok := s.Next()
		if issued-got > maxRunAhead {
			t.Fatalf("after %d ops: program ran %d ops ahead, bound is %d", got, issued-got, maxRunAhead)
		}
		if !ok {
			break
		}
		want := Op{Kind: OpStore, Addr: 8, Data: 1 + mem.Word(got)}
		if got%2 == 1 {
			want = Op{Kind: OpLoad, Addr: 8}
		}
		if op != want {
			t.Fatalf("op %d = %+v, want %+v", got, op, want)
		}
		r := Result{Latency: 1}
		if op.Kind == OpLoad {
			r.Value = mem.Word(got) // the store just before it
		}
		got++
		s.Deliver(r)
	}
	if got != n {
		t.Errorf("stream delivered %d ops, want %d", got, n)
	}
}
