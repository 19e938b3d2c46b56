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

// txLoopStores is the store count of each txLoopStream transaction:
// two words on each of four lines.
const txLoopStores = 8

// txLoopStream is a native OpStream repeating one small transaction
// forever: TxBegin, txLoopStores stores to the same four lines, TxEnd.
// Each transaction is txLoopStores+2 operations.
type txLoopStream struct {
	i int
	n mem.Word
}

func (s *txLoopStream) Next() (sim.Op, bool) {
	k := s.i % (txLoopStores + 2)
	s.i++
	switch k {
	case 0:
		return sim.Op{Kind: sim.OpTxBegin}, true
	case txLoopStores + 1:
		return sim.Op{Kind: sim.OpTxEnd}, true
	}
	s.n++
	w := mem.Addr(k - 1)
	addr := 0x4000 + w/2*mem.LineSize + w%2*mem.WordSize
	return sim.Op{Kind: sim.OpStore, Addr: addr, Data: s.n}, true
}

func (s *txLoopStream) Deliver(sim.Result) {}

// Every design's steady-state transaction — its store hooks, its commit,
// the golden shadow's promotion, the WPQ — must allocate nothing with
// telemetry off. One measured run is one whole transaction, so a
// per-commit allocation cannot hide in the per-op average.
func TestDesignsSteadyStateZeroAlloc(t *testing.T) {
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
			m := New(Config{
				Cores:        1,
				PM:           pm.DefaultConfig(),
				Cache:        cache.DefaultHierarchyConfig(),
				Design:       tc.factory,
				DisableAudit: true,
			})
			eng := m.Engine(1)
			eng.Bind([]sim.OpStream{&txLoopStream{}})
			tx := func() {
				for i := 0; i < txLoopStores+2; i++ {
					eng.Step()
				}
			}
			for i := 0; i < 64; i++ {
				tx() // warm caches, log buffers, shadow and media tables
			}
			if allocs := testing.AllocsPerRun(200, tx); allocs != 0 {
				t.Fatalf("steady-state transaction allocates %v times with telemetry disabled, want 0", allocs)
			}
			// AllocsPerRun runs tx once more to warm up: 64 + 1 + 200.
			if m.Commits() != 265 {
				t.Fatalf("%d commits, want 265: the loop did not run whole transactions", m.Commits())
			}
		})
	}
}
