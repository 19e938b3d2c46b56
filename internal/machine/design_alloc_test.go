package machine

import (
	"testing"

	"silo/internal/baseline"
	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
)

// txLoopStream is a native OpStream repeating one transaction forever:
// TxBegin, stores stores to perLine words of each line from 0x4000 up,
// TxEnd. Each transaction is stores+2 operations.
type txLoopStream struct {
	stores, perLine int
	i               int
	n               mem.Word
}

func (s *txLoopStream) Next() (sim.Op, bool) {
	k := s.i % (s.stores + 2)
	s.i++
	switch k {
	case 0:
		return sim.Op{Kind: sim.OpTxBegin}, true
	case s.stores + 1:
		return sim.Op{Kind: sim.OpTxEnd}, true
	}
	s.n++
	w := mem.Addr(k - 1)
	per := mem.Addr(s.perLine)
	addr := 0x4000 + w/per*mem.LineSize + w%per*mem.WordSize
	return sim.Op{Kind: sim.OpStore, Addr: addr, Data: s.n}, true
}

func (s *txLoopStream) Deliver(sim.Result) {}

// newTxLoop builds a one-core machine running design on a txLoopStream
// with audit and telemetry off, warms it with 64 transactions (caches,
// log buffers, shadow and media tables), and returns it with a function
// that runs one more whole transaction.
func newTxLoop(design logging.Factory, stores, perLine int) (*Machine, func()) {
	m := New(Config{
		Cores:        1,
		PM:           pm.DefaultConfig(),
		Cache:        cache.DefaultHierarchyConfig(),
		Design:       design,
		DisableAudit: true,
	})
	eng := m.Engine(1)
	eng.Bind([]sim.OpStream{&txLoopStream{stores: stores, perLine: perLine}})
	tx := func() {
		for i := 0; i < stores+2; i++ {
			eng.Step()
		}
	}
	for i := 0; i < 64; i++ {
		tx()
	}
	return m, tx
}

// Every design's steady-state transaction — its store hooks, its commit,
// the golden shadow's promotion, the WPQ — must allocate nothing with
// telemetry off. One measured run is one whole transaction, so a
// per-commit allocation cannot hide in the per-op average. Two shapes
// run: a small write set (two words on each of four lines) and one that
// overflows Silo's 20-entry log buffer (one word on each of 64 lines),
// so the batched overflow eviction is covered too.
func TestDesignsSteadyStateZeroAlloc(t *testing.T) {
	shapes := []struct {
		name            string
		stores, perLine int
	}{
		{"small", 8, 2},
		{"overflow", 64, 1},
	}
	for _, tc := range []struct {
		name    string
		factory logging.Factory
	}{
		{"Base", baseline.NewBase},
		{"FWB", baseline.NewFWB},
		{"MorLog", baseline.NewMorLog},
		{"LAD", baseline.NewLAD},
		{"Silo", core.Factory(core.Options{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					m, tx := newTxLoop(tc.factory, sh.stores, sh.perLine)
					if allocs := testing.AllocsPerRun(200, tx); allocs != 0 {
						t.Fatalf("steady-state transaction allocates %v times with telemetry disabled, want 0", allocs)
					}
					// AllocsPerRun runs tx once more to warm up: 64 + 1 + 200.
					if m.Commits() != 265 {
						t.Fatalf("%d commits, want 265: the loop did not run whole transactions", m.Commits())
					}
				})
			}
		})
	}
}

// BenchmarkSiloOverflow times one steady-state Silo transaction whose
// 64 stores to 64 lines overflow the 20-entry log buffer, so each
// transaction runs four batched overflow evictions (§III-F) on top of
// the store hooks and the commit.
func BenchmarkSiloOverflow(b *testing.B) {
	_, tx := newTxLoop(core.Factory(core.Options{}), 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tx()
	}
}
