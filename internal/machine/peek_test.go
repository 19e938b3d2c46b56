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

// tx executes one committed transaction on core 0 storing v at each addr.
func tx(m *Machine, now sim.Cycle, v mem.Word, addrs ...mem.Addr) sim.Cycle {
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, now)
	for _, a := range addrs {
		now++
		m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: a, Data: v}, now)
	}
	m.Exec(0, sim.Op{Kind: sim.OpTxEnd}, now+1)
	return now + 2
}

// Peek answers from the golden state, so a committed store whose dirty
// line vanished without a write-back is a load mismatch: the executed
// load reads the stale device word, and a program's load check panics.
// With loads answered from the hierarchy, peek and load both read the
// stale word and the loss goes unseen.
func TestLostWritebackIsLoadMismatch(t *testing.T) {
	lose := func() *Machine {
		m := newMachine(1, baseline.NewEADRSW)
		tx(m, 0, 5, 0x1000)
		m.Hierarchy().InvalidateAll() // the dirty line is dropped, not written back
		return m
	}
	m := lose()
	peek := m.Peek(0, 0x1000)
	load := m.Exec(0, sim.Op{Kind: sim.OpLoad, Addr: 0x1000}, 10).Value
	if peek != 5 || load != 0 {
		t.Fatalf("peek = %d, load = %d; want 5 (golden) and 0 (lost line)", peek, load)
	}

	m = lose()
	defer func() {
		err, ok := recover().(*sim.LoadMismatchError)
		if !ok {
			t.Fatalf("panic value %T, want *sim.LoadMismatchError", err)
		}
		if err.Addr != 0x1000 || err.Peeked != 5 || err.Delivered != 0 {
			t.Errorf("mismatch = %+v, want addr 0x1000 peeked 5 delivered 0", *err)
		}
	}()
	runPrograms(m.Engine(1), func(ctx *sim.Ctx) { ctx.Load(0x1000) })
	t.Fatal("a lost write-back did not stop the run")
}

// Each golden source of Peek, and the executed load beside it.
func TestPeekGoldenSources(t *testing.T) {
	tiny := cache.HierarchyConfig{
		L1: cache.Config{Name: "L1", Size: 512, Ways: 2, Latency: 4},
		L2: cache.Config{Name: "L2", Size: 1024, Ways: 2, Latency: 12},
		L3: cache.Config{Name: "L3", Size: 2048, Ways: 2, Latency: 28},
	}
	const a = mem.Addr(0x2000)
	cases := []struct {
		name       string
		design     logging.Factory
		run        func(m *Machine) *Machine // returns the machine to probe
		peek, load mem.Word
	}{{
		name:   "pending write",
		design: core.Factory(core.Options{}),
		run: func(m *Machine) *Machine {
			tx(m, 0, 3, a)
			m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, 10)
			m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: a, Data: 4}, 11)
			return m
		},
		peek: 4, load: 4,
	}, {
		name:   "committed word, line evicted",
		design: core.Factory(core.Options{}),
		run: func(m *Machine) *Machine {
			now := tx(m, 0, 6, a)
			// 64 more lines overflow the 56 lines the exclusive levels hold.
			for i := 1; i <= 64; i++ {
				now = tx(m, now, 1, a+mem.Addr(i*mem.LineSize))
			}
			if _, dirty := m.Hierarchy().DirtyLine(0, a); dirty {
				t.Fatal("line still cached; the case needs it evicted")
			}
			return m
		},
		peek: 6, load: 6,
	}, {
		name:   "tainted word after InvalidateAll",
		design: baseline.NewEADRSW,
		run: func(m *Machine) *Machine {
			tx(m, 0, 1, a)
			m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: a, Data: 7}, 10)
			m.Hierarchy().InvalidateAll()
			return m
		},
		peek: 7, load: 0, // the non-transactional store's line was lost
	}, {
		name:   "never stored",
		design: core.Factory(core.Options{}),
		run: func(m *Machine) *Machine {
			m.Device().PokeWord(a, 8)
			return m
		},
		peek: 8, load: 8,
	}, {
		name:   "rebooted over Config.Device",
		design: baseline.NewEADRSW,
		run: func(m *Machine) *Machine {
			tx(m, 0, 9, a)
			m.InjectCrash(10) // eADR: the battery writes the caches back
			m.Device().PowerCycle()
			return New(Config{Cores: 1, Cache: tiny, Design: baseline.NewEADRSW, Device: m.Device()})
		},
		peek: 9, load: 9,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.run(New(Config{Cores: 1, PM: pm.DefaultConfig(), Cache: tiny, Design: c.design}))
			if got := m.Peek(0, a); got != c.peek {
				t.Errorf("peek = %d, want %d", got, c.peek)
			}
			if got := m.Exec(0, sim.Op{Kind: sim.OpLoad, Addr: a}, 1000).Value; got != c.load {
				t.Errorf("load = %d, want %d", got, c.load)
			}
		})
	}
}
