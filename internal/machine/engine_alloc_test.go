package machine

import (
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

// storeStream is a native OpStream issuing one TxBegin and then in-tx
// stores to a single hot address forever — the engine-level analogue of
// steadyStores, driving Engine.Step through its scheduler fast path.
type storeStream struct {
	begun bool
	n     mem.Word
}

func (s *storeStream) Next() (sim.Op, bool) {
	if !s.begun {
		s.begun = true
		return sim.Op{Kind: sim.OpTxBegin}, true
	}
	s.n++
	return sim.Op{Kind: sim.OpStore, Addr: 0x4000, Data: s.n}, true
}

func (s *storeStream) Deliver(sim.Result) {}

// The cooperative scheduler's whole point is that the per-op path does no
// channel operations and no allocations: with telemetry disabled, a
// steady-state Engine.Step must allocate nothing. This is the engine-level
// sibling of TestExecDisabledTelemetryZeroAlloc.
func TestEngineStepZeroAlloc(t *testing.T) {
	m := benchMachine(nil)
	eng := m.Engine(1)
	eng.Bind([]sim.OpStream{&storeStream{}})
	for i := 0; i < 64; i++ {
		eng.Step() // warm caches, log buffer, shadow tables
	}
	if allocs := testing.AllocsPerRun(200, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("steady-state Engine.Step allocates %v per op with telemetry disabled, want 0", allocs)
	}
}

func BenchmarkEngineStep(b *testing.B) {
	m := benchMachine(nil)
	eng := m.Engine(1)
	eng.Bind([]sim.OpStream{&storeStream{}})
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// The unit stream every workload written against a Ctx runs on must
// allocate nothing in steady state either: a never-ending stream of Silo
// transactions loading and storing words, driven through Engine.Step —
// op buffering, loads answered at issue (from a buffered store or Peek),
// the delivered-value check, and the buffer reused across units.
func TestUnitStreamZeroAlloc(t *testing.T) {
	m := benchMachine(nil)
	eng := m.Engine(1)
	eng.Bind([]sim.OpStream{sim.NewStream(0, sim.CoreRand(1, 0), func(ctx *sim.Ctx) bool {
		ctx.TxBegin()
		for a := mem.Addr(0x4000); a < 0x4000+4*mem.LineSize; a += mem.LineSize {
			ctx.Store(a, ctx.Load(a)+1)
			ctx.Load(a)
		}
		ctx.TxEnd()
		return true
	})})
	for i := 0; i < 1024; i++ {
		eng.Step() // warm caches, log buffer, shadow tables
	}
	if allocs := testing.AllocsPerRun(1000, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("steady-state unit stream allocates %v per op with telemetry disabled, want 0", allocs)
	}
}
