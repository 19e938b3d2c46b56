package sim

import (
	"testing"
	"time"

	"silo/internal/mem"
)

type spinExec struct{}

func (spinExec) Exec(core int, op Op, now Cycle) Result { return Result{Latency: 1} }

// A program that never terminates must be crashed and unwound once the
// sim clock reaches the watchdog budget, instead of hanging the host.
func TestWatchdogKillsLivelockedProgram(t *testing.T) {
	e := NewEngine(spinExec{}, 1, 1)
	e.SetWatchdog(10_000)
	done := make(chan struct{})
	go func() {
		runPrograms(e, func(ctx *Ctx) {
			for {
				ctx.Compute(1)
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog did not unwind the livelocked program")
	}
	if !e.WatchdogFired() {
		t.Error("WatchdogFired not reported")
	}
	if !e.Crashed() {
		t.Error("watchdog kill did not mark the engine crashed")
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

// A program that never loads suspends every maxRunAhead ops, so the
// engine, not the program, sets the pace: the queue of ops issued but
// not yet executed never exceeds the bound, and every op still executes
// in program order.
func TestProgramStreamRunAheadBounded(t *testing.T) {
	const n = 10 * maxRunAhead
	s := NewProgramStream(0, CoreRand(1, 0), func(ctx *Ctx) {
		for i := 0; i < n; i++ {
			ctx.Store(8, 1+mem.Word(i))
		}
	}).(*coroStream)
	got := 0
	for {
		op, ok := s.Next()
		if len(s.queue) > maxRunAhead {
			t.Fatalf("after %d ops: %d queued ops, bound is %d", got, len(s.queue), maxRunAhead)
		}
		if !ok {
			break
		}
		if op.Kind != OpStore || op.Data != 1+mem.Word(got) {
			t.Fatalf("op %d = %+v, want store of %d", got, op, got+1)
		}
		got++
		s.Deliver(Result{Latency: 1})
	}
	if got != n {
		t.Errorf("stream delivered %d ops, want %d", got, n)
	}
}
