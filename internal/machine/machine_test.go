package machine

import (
	"slices"
	"testing"

	"silo/internal/baseline"
	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/fault"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
)

func newMachine(cores int, factory logging.Factory) *Machine {
	return New(Config{
		Cores:  cores,
		PM:     pm.DefaultConfig(),
		Cache:  cache.DefaultHierarchyConfig(),
		Design: factory,
	})
}

// runPrograms drives one program per core to completion on eng, each
// program the one unit of its core's stream.
func runPrograms(eng *sim.Engine, progs ...func(ctx *sim.Ctx)) {
	streams := make([]sim.OpStream, len(progs))
	for i, p := range progs {
		streams[i] = sim.NewStream(i, sim.CoreRand(eng.Seed(), i), func(ctx *sim.Ctx) bool {
			p(ctx)
			return false
		})
	}
	eng.RunStreams(streams)
}

func TestExecLoadStore(t *testing.T) {
	m := newMachine(1, core.Factory(core.Options{}))
	m.Device().PokeWord(0x1000, 7)
	if w := m.Peek(0, 0x1000); w != 7 {
		t.Errorf("peek from the device = %d, want 7", w)
	}
	r := m.Exec(0, sim.Op{Kind: sim.OpLoad, Addr: 0x1000}, 0)
	if r.Value != 7 {
		t.Errorf("load = %d, want 7", r.Value)
	}
	if r.Latency <= 0 {
		t.Error("load had no latency")
	}
	m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x1000, Data: 8}, 10)
	if w := m.Peek(0, 0x1000); w != 8 {
		t.Errorf("peek of the stored word = %d, want 8", w)
	}
	r = m.Exec(0, sim.Op{Kind: sim.OpLoad, Addr: 0x1000}, 20)
	if r.Value != 8 {
		t.Errorf("load after store = %d", r.Value)
	}
}

func TestExecComputeLatency(t *testing.T) {
	m := newMachine(1, core.Factory(core.Options{}))
	r := m.Exec(0, sim.Op{Kind: sim.OpCompute, Cycles: 123}, 0)
	if r.Latency != 123 {
		t.Errorf("compute latency = %d", r.Latency)
	}
}

func TestGoldenShadowCommit(t *testing.T) {
	m := newMachine(1, core.Factory(core.Options{}))
	m.Device().PokeWord(0x2000, 5)
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, 0)
	m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x2000, Data: 6}, 1)
	// Before commit: golden value is the baseline (pre-tx) value.
	if v, ok := m.GoldenCommitted(0x2000); !ok || v != 5 {
		t.Errorf("pre-commit golden = %d/%v, want 5", v, ok)
	}
	m.Exec(0, sim.Op{Kind: sim.OpTxEnd}, 2)
	if v, ok := m.GoldenCommitted(0x2000); !ok || v != 6 {
		t.Errorf("post-commit golden = %d/%v, want 6", v, ok)
	}
	if m.Commits() != 1 {
		t.Errorf("commits = %d", m.Commits())
	}
	if len(m.WrittenWords()) != 1 {
		t.Errorf("written words = %v", m.WrittenWords())
	}
}

func TestNonTxStoresExcludedFromVerification(t *testing.T) {
	m := newMachine(1, core.Factory(core.Options{}))
	m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x3000, Data: 1}, 0)
	if _, ok := m.GoldenCommitted(0x3000); ok {
		t.Error("non-transactional store entered the golden shadow")
	}
	if len(m.WrittenWords()) != 0 {
		t.Error("non-transactional word listed for verification")
	}
}

func TestCrashAtOpStopsEngine(t *testing.T) {
	m := New(Config{
		Cores:  1,
		PM:     pm.DefaultConfig(),
		Cache:  cache.DefaultHierarchyConfig(),
		Design: core.Factory(core.Options{}),
		Fault:  &fault.Plan{Trigger: fault.TriggerOp, AtOp: 10},
	})
	eng := m.Engine(1)
	units := 0
	eng.RunStreams([]sim.OpStream{sim.NewStream(0, sim.CoreRand(1, 0), func(ctx *sim.Ctx) bool {
		ctx.Store(mem.Addr(0x100+units*8), mem.Word(units))
		units++
		return units < 1000
	})})
	if !eng.Crashed() {
		t.Fatal("engine did not crash")
	}
	if units >= 1000 || eng.Ops(sim.OpStore) >= 10 {
		t.Errorf("stream ran on after the crash at op 10: %d units called, %d stores executed", units, eng.Ops(sim.OpStore))
	}
	// Caches must be empty (volatile loss).
	if _, dirty := m.Hierarchy().DirtyLine(0, 0x100); dirty {
		t.Error("cache contents survived the crash")
	}
}

func TestCollectStatsGathersEverything(t *testing.T) {
	m := newMachine(1, baseline.NewBase)
	eng := m.Engine(1)
	runPrograms(eng, func(ctx *sim.Ctx) {
		for i := 0; i < 20; i++ {
			ctx.TxBegin()
			ctx.Store(mem.Addr(0x100+i*64), mem.Word(i))
			ctx.TxEnd()
		}
	})
	r := m.CollectStats("Base", "unit")
	if r.Design != "Base" || r.Workload != "unit" || r.Cores != 1 {
		t.Errorf("labels: %+v", r)
	}
	if r.Transactions != 20 || r.Stores != 20 {
		t.Errorf("tx/stores = %d/%d", r.Transactions, r.Stores)
	}
	if r.Cycles <= 0 || r.WPQWrites == 0 || r.MediaWrites == 0 {
		t.Errorf("traffic counters empty: %+v", r)
	}
	if r.LogEntriesCreated != 20 {
		t.Errorf("design stats not collected: %d", r.LogEntriesCreated)
	}
	if r.L1Hits+r.L1Misses == 0 {
		t.Error("cache stats not collected")
	}
}

func TestMCReaderFillPath(t *testing.T) {
	// A line buffered in LAD's MC must satisfy cache fills. Peek answers
	// from the transaction's pending write, and the fill must agree.
	m := newMachine(1, baseline.NewLAD)
	lad := m.Design().(*baseline.LAD)
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, 0)
	m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x4000, Data: 9}, 1)
	var line [mem.LineSize]byte
	line[0] = 9
	lad.CachelineEvicted(2, 0x4000, line)
	m.Hierarchy().InvalidateAll() // force the next load to fill
	if w := m.Peek(0, 0x4000); w != 9 {
		t.Errorf("peek of the pending write = %d, want 9", w)
	}
	r := m.Exec(0, sim.Op{Kind: sim.OpLoad, Addr: 0x4000}, 3)
	if r.Value != 9 {
		t.Errorf("fill from MC buffer = %d, want 9", r.Value)
	}
}

func TestCrashedNowAndHistograms(t *testing.T) {
	m := newMachine(1, core.Factory(core.Options{}))
	if m.Crashed() || m.Now() != 0 {
		t.Error("fresh machine reports crashed/nonzero time")
	}
	eng := m.Engine(1)
	runPrograms(eng, func(ctx *sim.Ctx) {
		for i := 0; i < 30; i++ {
			ctx.TxBegin()
			ctx.Store(mem.Addr(0x100+i*8), mem.Word(i))
			ctx.TxEnd()
		}
	})
	if m.Crashed() {
		t.Error("clean run reports crashed")
	}
	if m.Now() <= 0 {
		t.Error("Now not advanced")
	}
	if m.CommitHist().Count() != 30 || m.TxHist().Count() != 30 {
		t.Errorf("histograms observed %d/%d commits", m.CommitHist().Count(), m.TxHist().Count())
	}
	if m.TxHist().Mean() <= 0 {
		t.Error("transaction latency mean is zero")
	}
	if m.Region() == nil {
		t.Error("region accessor")
	}
}

func TestWritebackRoutesThroughDesign(t *testing.T) {
	// Overflow the tiny hierarchy so LLC evictions occur and reach PM via
	// the design's CachelineEvicted.
	m := New(Config{
		Cores: 1,
		PM:    pm.DefaultConfig(),
		Cache: cache.HierarchyConfig{
			L1: cache.Config{Name: "L1", Size: 512, Ways: 2, Latency: 4},
			L2: cache.Config{Name: "L2", Size: 1024, Ways: 2, Latency: 12},
			L3: cache.Config{Name: "L3", Size: 2048, Ways: 2, Latency: 28},
		},
		Design: core.Factory(core.Options{}),
	})
	eng := m.Engine(1)
	runPrograms(eng, func(ctx *sim.Ctx) {
		ctx.TxBegin()
		for i := 0; i < 200; i++ {
			ctx.Store(mem.Addr(0x1000+i*mem.LineSize), mem.Word(i)+1)
		}
		ctx.TxEnd()
	})
	if m.Hierarchy().Writebacks == 0 {
		t.Fatal("no LLC writebacks despite cache overflow")
	}
	// Evicted data must be durable in PM.
	if got := m.Device().PeekWord(0x1000); got != 1 {
		t.Errorf("evicted word = %d", got)
	}
}

// Release pools each part once: a second Release adds nothing to a
// Recycler, and on the package pools it cannot make two later machines
// share a device, shadow or pending table. A Device passed in through
// Config is never pooled.
func TestDoubleReleasePoolsOnce(t *testing.T) {
	store := func(m *Machine) {
		m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, 0)
		m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x4000, Data: 1}, 1)
		m.Exec(0, sim.Op{Kind: sim.OpTxEnd}, 2)
	}
	cfg := Config{Cores: 2, PM: pm.DefaultConfig(), Cache: cache.DefaultHierarchyConfig(), Design: core.Factory(core.Options{})}

	r := NewRecycler()
	rc := cfg
	rc.Recycle = r
	m := New(rc)
	store(m)
	m.Release()
	m.Release()
	if len(r.devices) != 1 || len(r.shadows) != 1 || len(r.writes) != 2 {
		t.Fatalf("after two Releases the recycler holds %d devices, %d shadows, %d pending tables; want 1, 1, 2",
			len(r.devices), len(r.shadows), len(r.writes))
	}

	dev := pm.New(pm.DefaultConfig())
	rc.Device = dev
	m = New(rc)
	store(m)
	m.Release()
	if len(r.devices) != 1 || r.devices[0] == dev || m.Device() != dev {
		t.Fatal("a caller's device was pooled or replaced")
	}

	m = New(cfg)
	store(m)
	m.Release()
	m.Release()
	// The collector may reclaim an idle part, so only a part handed out
	// twice is a failure.
	d1, d2 := devicePool.Get(), devicePool.Get()
	s1, s2 := shadowPool.Get(), shadowPool.Get()
	if (d1 != nil && d1 == d2) || (s1 != nil && s1 == s2) {
		t.Fatal("a second Release pooled a part twice")
	}
	var w []*txWrites
	for i := 0; i < 4; i++ {
		if p := writesPool.Get(); p != nil {
			if slices.Contains(w, p) {
				t.Fatal("a second Release pooled a pending table twice")
			}
			w = append(w, p)
		}
	}
}
