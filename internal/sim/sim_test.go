package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"silo/internal/mem"
)

// recordingExec logs every op with its core and time, and answers loads
// from a word map.
type recordingExec struct {
	ops   []execRecord
	words map[mem.Addr]mem.Word
	lat   Cycle
}

type execRecord struct {
	core int
	op   Op
	now  Cycle
}

func (e *recordingExec) Exec(core int, op Op, now Cycle) Result {
	e.ops = append(e.ops, execRecord{core, op, now})
	switch op.Kind {
	case OpStore:
		if e.words == nil {
			e.words = make(map[mem.Addr]mem.Word)
		}
		e.words[op.Addr] = op.Data
	case OpLoad:
		return Result{Latency: e.lat, Value: e.words[op.Addr]}
	case OpCompute:
		return Result{Latency: op.Cycles}
	}
	return Result{Latency: e.lat}
}

func (e *recordingExec) Peek(core int, addr mem.Addr) mem.Word { return e.words[addr] }

// program is a finite workload run as one unit of a unit stream.
type program func(ctx *Ctx)

// programStream returns core's stream running p as its one unit.
func programStream(core int, rng *rand.Rand, p program) OpStream {
	return NewStream(core, rng, func(ctx *Ctx) bool {
		p(ctx)
		return false
	})
}

// runPrograms drives one program per core to completion on the engine.
func runPrograms(e *Engine, progs ...program) Cycle {
	streams := make([]OpStream, len(progs))
	for i, p := range progs {
		streams[i] = programStream(i, CoreRand(e.Seed(), i), p)
	}
	return e.RunStreams(streams)
}

func TestEngineSingleCore(t *testing.T) {
	exec := &recordingExec{lat: 5}
	e := NewEngine(exec, 1, 1)
	end := runPrograms(e, func(ctx *Ctx) {
		ctx.TxBegin()
		ctx.Store(64, 7)
		if got := ctx.Load(64); got != 7 {
			t.Errorf("load returned %d, want 7", got)
		}
		ctx.TxEnd()
		ctx.Compute(100)
	})
	if len(exec.ops) != 5 {
		t.Fatalf("executed %d ops, want 5", len(exec.ops))
	}
	// 4 ops at 5 cycles + compute 100.
	if end != 120 {
		t.Errorf("final time = %d, want 120", end)
	}
	if e.Ops(OpStore) != 1 || e.Ops(OpLoad) != 1 || e.Ops(OpCompute) != 1 {
		t.Errorf("op counters wrong: %d stores %d loads", e.Ops(OpStore), e.Ops(OpLoad))
	}
}

func TestEngineMinTimeInterleaving(t *testing.T) {
	// Core 0 issues slow ops, core 1 fast ops; the engine must execute
	// ops in nondecreasing time order.
	exec := &recordingExec{}
	e := NewEngine(exec, 2, 1)
	mk := func(n int, c Cycle) program {
		return func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				ctx.Compute(c)
			}
		}
	}
	runPrograms(e, mk(3, 100), mk(30, 7))
	var last Cycle
	for i, r := range exec.ops {
		if r.now < last {
			t.Fatalf("op %d executed at %d after time %d", i, r.now, last)
		}
		last = r.now
	}
	if got := e.CoreTime(0); got != 300 {
		t.Errorf("core 0 time = %d, want 300", got)
	}
	if got := e.CoreTime(1); got != 210 {
		t.Errorf("core 1 time = %d, want 210", got)
	}
	if e.Now() != 300 {
		t.Errorf("Now() = %d, want 300", e.Now())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []execRecord {
		exec := &recordingExec{lat: 3}
		e := NewEngine(exec, 4, 99)
		progs := make([]program, 4)
		for i := range progs {
			progs[i] = func(ctx *Ctx) {
				for k := 0; k < 50; k++ {
					a := mem.Addr(ctx.Rand.Intn(1024)) * 8
					ctx.Store(a, mem.Word(k))
					ctx.Load(a)
					ctx.Compute(Cycle(ctx.Rand.Intn(20)))
				}
			}
		}
		runPrograms(e, progs...)
		return exec.ops
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different op counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEnginePerCoreRandIndependent(t *testing.T) {
	exec := &recordingExec{}
	e := NewEngine(exec, 2, 5)
	got := make([][]int, 2)
	var progs []program
	for i := 0; i < 2; i++ {
		progs = append(progs, func(ctx *Ctx) {
			for k := 0; k < 10; k++ {
				got[ctx.Core()] = append(got[ctx.Core()], ctx.Rand.Intn(1000))
			}
			ctx.Compute(1)
		})
	}
	runPrograms(e, progs...)
	same := true
	for i := range got[0] {
		if got[0][i] != got[1][i] {
			same = false
		}
	}
	if same {
		t.Error("cores received identical random streams")
	}
}

type crashAtExec struct {
	n      int64
	at     int64
	engine *Engine
}

func (c *crashAtExec) Exec(core int, op Op, now Cycle) Result {
	c.n++
	if c.n == c.at {
		c.engine.Crash()
	}
	return Result{Latency: 1}
}

func (c *crashAtExec) Peek(int, mem.Addr) mem.Word { return 0 }

// A crash must end every core's stream, also streams of units that
// never end: no op after the crash reaches the executor, and no core
// calls another unit.
func TestEngineCrashUnwindsAllCores(t *testing.T) {
	exec := &crashAtExec{at: 37}
	e := NewEngine(exec, 4, 1)
	exec.engine = e
	units := make([]int, 4)
	streams := make([]OpStream, 4)
	for i := range streams {
		streams[i] = NewStream(i, CoreRand(1, i), func(ctx *Ctx) bool {
			units[ctx.Core()]++
			for k := 0; k < 5; k++ {
				ctx.Compute(1)
			}
			return true
		})
	}
	e.RunStreams(streams) // must terminate: the streams never end
	if !e.Crashed() {
		t.Fatal("engine not marked crashed")
	}
	if exec.n != 37 {
		t.Errorf("ops after crash: executed %d, crash at 37", exec.n)
	}
	before := slices.Clone(units)
	for i, s := range streams {
		if _, ok := s.Next(); ok {
			t.Errorf("core %d stream yields ops after the crash", i)
		}
	}
	if !slices.Equal(units, before) {
		t.Errorf("units called after the crash: %v, then %v", before, units)
	}
}

func TestEngineEmptyPrograms(t *testing.T) {
	e := NewEngine(&recordingExec{}, 2, 1)
	if end := runPrograms(e, func(*Ctx) {}, func(*Ctx) {}); end != 0 {
		t.Errorf("empty programs advanced time to %d", end)
	}
}

func TestEngineNegativeLatencyDoesNotAdvance(t *testing.T) {
	// An executor returning -1 (crash sentinel) must end the core's run
	// without moving its clock, and no later op of the program may reach
	// the executor — whether the crashing op is a load or a compute: the
	// program has buffered past either.
	for _, kind := range []OpKind{OpCompute, OpLoad} {
		exec := &negExec{}
		e := NewEngine(exec, 1, 1)
		exec.e = e
		runPrograms(e, func(ctx *Ctx) {
			ctx.Compute(10)
			if kind == OpLoad {
				ctx.Load(64) // this op gets the -1 reply
			} else {
				ctx.Compute(10) // this op gets the -1 reply
			}
			ctx.Store(64, 1)
			ctx.Compute(10)
		})
		if e.CoreTime(0) != 10 {
			t.Errorf("crash at %v: core time = %d, want 10", kind, e.CoreTime(0))
		}
		if exec.n != 2 {
			t.Errorf("crash at %v: executor saw %d ops, want 2 (nothing after the crash)", kind, exec.n)
		}
	}
}

type negExec struct {
	n int
	e *Engine
}

func (x *negExec) Peek(int, mem.Addr) mem.Word { return 0 }

func (x *negExec) Exec(core int, op Op, now Cycle) Result {
	x.n++
	if x.n == 2 {
		x.e.Crash()
		return Result{Latency: -1}
	}
	return Result{Latency: op.Cycles}
}

// A load is answered when it is issued — from the newest buffered store to
// the same word, else from the executor's Peek — before the engine has
// executed anything.
func TestProgramLoadAnsweredAtIssue(t *testing.T) {
	exec := &recordingExec{words: map[mem.Addr]mem.Word{128: 9}}
	e := NewEngine(exec, 1, 1)
	var got [3]mem.Word
	e.Bind([]OpStream{programStream(0, CoreRand(1, 0), func(ctx *Ctx) {
		ctx.TxBegin()
		ctx.Store(64, 7)
		got[0] = ctx.Load(64)
		got[1] = ctx.Load(128)
		ctx.Store(64, 8)
		got[2] = ctx.Load(64)
		ctx.TxEnd()
	})}) // the prefetch runs the whole program, its one unit
	if len(exec.ops) != 0 {
		t.Fatalf("engine executed %d ops before the first Step", len(exec.ops))
	}
	if got != [3]mem.Word{7, 9, 8} {
		t.Errorf("loads answered %v, want [7 9 8]", got)
	}
	for e.Step() {
	}
	if len(exec.ops) != 7 || e.Ops(OpLoad) != 3 {
		t.Errorf("executed %d ops (%d loads), want 7 (3)", len(exec.ops), e.Ops(OpLoad))
	}
}

// lyingExec's Peek disagrees with the value Exec's loads return.
type lyingExec struct{ recordingExec }

func (e *lyingExec) Peek(core int, addr mem.Addr) mem.Word { return e.words[addr] + 1 }

// A load that executes to a different value than the program was given
// must stop the run with a typed error naming core, address and values.
func TestLoadMismatchPanicsTyped(t *testing.T) {
	e := NewEngine(&lyingExec{}, 2, 1)
	defer func() {
		err, ok := recover().(*LoadMismatchError)
		if !ok {
			t.Fatalf("panic value %T, want *LoadMismatchError", err)
		}
		if want := (LoadMismatchError{Core: 1, Addr: 64, Peeked: 1, Delivered: 0}); *err != want {
			t.Errorf("mismatch = %+v, want %+v", *err, want)
		}
		if msg := err.Error(); !strings.Contains(msg, "core 1") || !strings.Contains(msg, "0x1") {
			t.Errorf("message %q does not name the core and values", msg)
		}
	}()
	runPrograms(e, func(ctx *Ctx) { ctx.Compute(5) }, func(ctx *Ctx) {
		ctx.Compute(3)
		ctx.Load(64)
	})
	t.Fatal("a mismatched load did not stop the run")
}

func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{
		OpLoad: "load", OpStore: "store", OpTxBegin: "tx_begin",
		OpTxEnd: "tx_end", OpCompute: "compute", OpKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestEngineMismatchedProgramsPanics(t *testing.T) {
	e := NewEngine(&recordingExec{}, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("mismatched program count did not panic")
		}
	}()
	runPrograms(e, func(*Ctx) {})
}

func TestComputeZeroIsNoOp(t *testing.T) {
	exec := &recordingExec{}
	e := NewEngine(exec, 1, 1)
	runPrograms(e, func(ctx *Ctx) {
		ctx.Compute(0)
		ctx.Compute(-5)
		ctx.Compute(3)
	})
	if len(exec.ops) != 1 {
		t.Errorf("zero/negative compute reached the executor: %d ops", len(exec.ops))
	}
	if e.Now() != 3 {
		t.Errorf("time = %d", e.Now())
	}
}

func TestEngineZeroCoresClamped(t *testing.T) {
	e := NewEngine(&recordingExec{}, 0, 1)
	if end := runPrograms(e, func(*Ctx) {}); end != 0 {
		t.Error("clamped single-core engine misbehaved")
	}
}

func TestEngineScheduleCrash(t *testing.T) {
	exec := &recordingExec{}
	e := NewEngine(exec, 2, 1)
	var fired []Cycle
	e.ScheduleCrash(50, func(now Cycle) { fired = append(fired, now) })
	progs := make([]program, 2)
	for i := range progs {
		progs[i] = func(ctx *Ctx) {
			for k := 0; k < 1000; k++ {
				ctx.Compute(7)
			}
		}
	}
	runPrograms(e, progs...)
	if !e.Crashed() {
		t.Fatal("engine not crashed")
	}
	if len(fired) != 1 {
		t.Fatalf("inject called %d times, want 1", len(fired))
	}
	if fired[0] < 50 || fired[0] > 50+7 {
		t.Errorf("crash at cycle %d, want first scheduling point >= 50", fired[0])
	}
	// The op holding the crash never executed; time stopped at the crash.
	for _, r := range exec.ops {
		if r.now >= fired[0] {
			t.Errorf("op executed at %d, at/after the crash point %d", r.now, fired[0])
		}
	}
}

func TestEngineScheduleCrashInjectMayCrashItself(t *testing.T) {
	// An inject hook that calls Crash() directly (as the machine does)
	// must not crash twice or deadlock.
	e := NewEngine(&recordingExec{}, 1, 1)
	n := 0
	e.ScheduleCrash(10, func(now Cycle) { n++; e.Crash() })
	runPrograms(e, func(ctx *Ctx) {
		for k := 0; k < 100; k++ {
			ctx.Compute(5)
		}
	})
	if n != 1 || !e.Crashed() {
		t.Errorf("inject ran %d times, crashed=%v", n, e.Crashed())
	}
}
