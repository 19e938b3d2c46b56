package workload

import (
	"math/rand"
	"testing"

	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/machine"
	"silo/internal/pm"
	"silo/internal/pmheap"
	"silo/internal/sim"
)

// runStream runs txns transactions of w on core 0 of a 1-core engine.
func runStream(eng *sim.Engine, w Workload, txns int) {
	eng.RunStreams([]sim.OpStream{w.Stream(0, txns, sim.CoreRand(eng.Seed(), 0))})
}

// setUp builds a 1-core Silo machine with w's initial state on it.
func setUp(w Workload, seed int64) *machine.Machine {
	m := machine.New(machine.Config{
		Cores:  1,
		PM:     pm.DefaultConfig(),
		Cache:  cache.DefaultHierarchyConfig(),
		Design: core.Factory(core.Options{}),
	})
	w.Setup(Direct(m.Device()), pmheap.New(pm.DefaultConfig().Layout, 1), 1, rand.New(rand.NewSource(seed)))
	return m
}

// runWorkload executes a workload on a fresh 1-core Silo machine and
// returns stores and committed transactions.
func runWorkload(t *testing.T, w Workload, txns int) (stores, commits int64) {
	t.Helper()
	m := setUp(w, 9)
	runStream(m.Engine(9), w, txns)
	r := m.CollectStats("Silo", w.Name())
	return r.Stores, r.Transactions
}

func TestRegistryKnownNames(t *testing.T) {
	for _, name := range []string{"Array", "Btree", "Hash", "Queue", "RBtree",
		"YCSB", "YCSB-A", "YCSB-B", "YCSB-C", "Rtree", "Ctrie", "TATP", "Bank",
		"HashMix", "RBtreeMix", "BPtree", "LevelHash"} {
		w := Registry(name)
		if w == nil {
			t.Fatalf("workload %q missing from registry", name)
		}
		if w.Name() != name {
			t.Errorf("registry %q returned %q", name, w.Name())
		}
	}
	if Registry("nope") != nil {
		t.Error("unknown name resolved")
	}
	if len(MicroNames()) != 5 {
		t.Error("micro name list")
	}
}

func TestEveryWorkloadCommits(t *testing.T) {
	for _, name := range []string{"Array", "Btree", "Hash", "Queue", "RBtree",
		"YCSB", "Rtree", "Ctrie", "TATP", "Bank"} {
		name := name
		t.Run(name, func(t *testing.T) {
			stores, commits := runWorkload(t, Registry(name), 100)
			if commits != 100 {
				t.Fatalf("committed %d of 100 transactions", commits)
			}
			if name != "TATP" && name != "YCSB" && stores == 0 {
				t.Error("workload never stored")
			}
			_ = stores
		})
	}
}

// TestWriteSizesSmall checks the Fig. 4 property: OLTP-style transactions
// have small write sets (well under ~0.5 KB on average).
func TestWriteSizesSmall(t *testing.T) {
	for _, name := range []string{"Btree", "Hash", "Queue", "RBtree", "TATP", "Bank", "YCSB", "Ctrie", "Rtree"} {
		name := name
		t.Run(name, func(t *testing.T) {
			stores, commits := runWorkload(t, Registry(name), 200)
			bytesPerTx := float64(stores*8) / float64(commits)
			if bytesPerTx > 512 {
				t.Errorf("avg write size %.0f B/tx exceeds the small-write-set regime", bytesPerTx)
			}
		})
	}
}

// TestArrayIgnoranceShape: the Array workload's sparse elements mean most
// swap stores rewrite identical words — the basis of the paper's 90.4 %
// ignorance rate.
func TestArrayIgnoranceShape(t *testing.T) {
	w := NewArray(512)
	m := setUp(w, 1)
	runStream(m.Engine(1), w, 200)
	r := m.CollectStats("Silo", "Array")
	ignoreRate := float64(r.LogEntriesIgnored) / float64(r.LogEntriesCreated)
	if ignoreRate < 0.7 {
		t.Errorf("Array ignorance rate %.2f, want > 0.7 (paper: 0.904)", ignoreRate)
	}
}

func TestOpsPerTxScalesWriteSet(t *testing.T) {
	// Bank writes a fixed 5 words per operation, so the scaling is exact.
	w1 := NewBank(1024)
	s1, c1 := runWorkload(t, w1, 100)
	w4 := NewBank(1024)
	w4.SetOpsPerTx(4)
	s4, c4 := runWorkload(t, w4, 100)
	if c1 != 100 || c4 != 100 {
		t.Fatal("commit counts wrong")
	}
	if s4 != 4*s1 {
		t.Errorf("4 ops/tx: stores %d, want exactly %d", s4, 4*s1)
	}
}

func TestTxShapeDefaults(t *testing.T) {
	var s TxShape
	if s.OpsPerTx() != 1 {
		t.Error("default ops per tx != 1")
	}
	s.SetOpsPerTx(-3)
	if s.OpsPerTx() != 1 {
		t.Error("negative ops not clamped")
	}
	s.SetOpsPerTx(7)
	if s.OpsPerTx() != 7 {
		t.Error("setter broken")
	}
}

func TestSweepWritesExactWordCount(t *testing.T) {
	w := NewSweep(40, 160)
	if w.Name() != "Sweep40" || w.Words() != 40 {
		t.Error("sweep metadata")
	}
	stores, commits := runWorkload(t, w, 50)
	if commits != 50 {
		t.Fatal("commits")
	}
	if stores != 50*40 {
		t.Errorf("stores = %d, want %d (distinct words per tx)", stores, 50*40)
	}
}

func TestSweepDistinctWordsPerTx(t *testing.T) {
	// Distinct words matter: they must survive Silo's merge/ignore
	// reduction so the overflow path is really exercised.
	w := NewSweep(60, 240) // 3x the 20-entry buffer
	m := setUp(w, 1)
	runStream(m.Engine(1), w, 30)
	r := m.CollectStats("Silo", w.Name())
	if r.LogOverflows == 0 {
		t.Error("3x write set never overflowed the log buffer")
	}
}

func TestDirectAccessor(t *testing.T) {
	dev := pm.New(pm.DefaultConfig())
	acc := Direct(dev)
	acc.Store(0x123450, 77)
	if got := acc.Load(0x123450); got != 77 {
		t.Errorf("direct accessor roundtrip = %d", got)
	}
	if dev.Stats().WPQWrites != 0 {
		t.Error("direct accessor counted traffic")
	}
}

func TestMixedWorkloadsCommit(t *testing.T) {
	for _, name := range []string{"HashMix", "RBtreeMix", "BPtree", "LevelHash"} {
		name := name
		t.Run(name, func(t *testing.T) {
			stores, commits := runWorkload(t, Registry(name), 150)
			if commits != 150 {
				t.Fatalf("committed %d", commits)
			}
			if stores == 0 {
				t.Error("churn workload never stored")
			}
		})
	}
}

func TestYCSBVariantsReadShare(t *testing.T) {
	// YCSB-C is read-only: it must store (almost) nothing; YCSB-A writes
	// roughly half as often as the paper's 80%-update mix.
	sDefault, _ := runWorkload(t, Registry("YCSB"), 400)
	sA, _ := runWorkload(t, Registry("YCSB-A"), 400)
	sC, _ := runWorkload(t, Registry("YCSB-C"), 400)
	if sC != 0 {
		t.Errorf("YCSB-C stored %d words; it is read-only", sC)
	}
	if sA >= sDefault {
		t.Errorf("YCSB-A (50%% reads) stored %d >= default 20%%-read mix %d", sA, sDefault)
	}
}
