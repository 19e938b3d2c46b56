package machine

import (
	"strings"
	"testing"

	"silo/internal/audit"
	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
	"silo/internal/stats"
)

// tinyCacheConfig overflows after 8 distinct lines, so LLC evictions hit
// words whose log entries are still buffered (buffer capacity is 20).
func tinyCacheConfig() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		L1: cache.Config{Name: "L1", Size: 128, Ways: 2, Latency: 4},
		L2: cache.Config{Name: "L2", Size: 256, Ways: 2, Latency: 12},
		L3: cache.Config{Name: "L3", Size: 512, Ways: 2, Latency: 28},
	}
}

func tinyCacheMachine(opts core.Options, disableAudit bool) *Machine {
	return New(Config{
		Cores:        1,
		PM:           pm.DefaultConfig(),
		Cache:        tinyCacheConfig(),
		Design:       core.Factory(opts),
		DisableAudit: disableAudit,
	})
}

// storeLines opens a transaction and stores n distinct cachelines, which
// on the tiny hierarchy forces mid-transaction LLC evictions.
func storeLines(m *Machine, n int) {
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, 0)
	for i := 0; i < n; i++ {
		m.Exec(0, sim.Op{Kind: sim.OpStore,
			Addr: mem.Addr(0x1000 + i*mem.LineSize), Data: mem.Word(i) + 1}, sim.Cycle(1+i*10))
	}
}

// auditViolation runs fn and returns the *audit.Violation it panics
// with, or nil if it returns normally.
func auditViolation(t *testing.T, fn func()) (v *audit.Violation) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if v, ok = r.(*audit.Violation); !ok {
				t.Fatalf("panicked with %T: %v", r, r)
			}
		}
	}()
	fn()
	return nil
}

// A seeded flush-bit bug — evictions no longer mark buffered entries —
// must be caught by the named flush-bit invariant at the eviction that
// breaks the state machine, not hundreds of ops later.
func TestAuditorCatchesSkippedFlushBit(t *testing.T) {
	m := tinyCacheMachine(core.Options{DebugSkipFlushBit: true}, false)
	v := auditViolation(t, func() { storeLines(m, 16) })
	if v == nil {
		t.Fatal("seeded flush-bit bug not caught")
	}
	if v.Invariant != audit.InvFlushBit {
		t.Fatalf("caught by %q, want %q", v.Invariant, audit.InvFlushBit)
	}
	if len(v.Trail) == 0 {
		t.Error("violation carries no event trail")
	}
}

// Control: the same pressure without the seeded bug is clean, and the
// auditor demonstrably ran (a mutation test against a dormant auditor
// would be vacuous).
func TestAuditorCleanOnCorrectEvictions(t *testing.T) {
	m := tinyCacheMachine(core.Options{}, false)
	if v := auditViolation(t, func() {
		storeLines(m, 16)
		m.Exec(0, sim.Op{Kind: sim.OpTxEnd}, 1000)
	}); v != nil {
		t.Fatalf("clean run violated %s: %s", v.Invariant, v.Message)
	}
	if m.Auditor().Checks() == 0 {
		t.Fatal("auditor performed no checks")
	}
}

// The golden-shadow diff cannot see the flush-bit bug on a crash-free
// run — commit re-flushes the same values, so the data region ends up
// correct. Only the runtime invariant distinguishes the broken state
// machine; this pins down why the auditor exists.
func TestGoldenShadowMissesSkippedFlushBit(t *testing.T) {
	m := tinyCacheMachine(core.Options{DebugSkipFlushBit: true}, true)
	storeLines(m, 16)
	m.Exec(0, sim.Op{Kind: sim.OpTxEnd}, 1000)
	for _, a := range m.WrittenWords() {
		want, ok := m.GoldenCommitted(a)
		if !ok {
			continue
		}
		if got := m.Device().PeekWord(a); got != want {
			t.Fatalf("golden shadow caught the flush-bit bug at %v (%#x != %#x); "+
				"the mutation test premise is broken", a, uint64(got), uint64(want))
		}
	}
}

// Post-commit durability: a committed word that silently vanishes from
// every durable domain must fail the reconstructibility invariant at the
// crash, even though commit-time checks had passed.
func TestAuditorCatchesLostCommittedWord(t *testing.T) {
	m := New(Config{
		Cores:  1,
		PM:     pm.DefaultConfig(),
		Cache:  cache.DefaultHierarchyConfig(),
		Design: core.Factory(core.Options{}),
	})
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, 0)
	m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x5000, Data: 7}, 1)
	m.Exec(0, sim.Op{Kind: sim.OpTxEnd}, 2)
	// Next Tx_begin deallocates the committed transaction's log state;
	// the word's only copy is now the in-place update.
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, 3)
	m.Device().PokeWord(0x5000, 99) // simulate losing the durable copy
	v := auditViolation(t, func() { m.InjectCrash(4) })
	if v == nil {
		t.Fatal("lost committed word not caught at crash")
	}
	if v.Invariant != audit.InvReconstructible {
		t.Fatalf("caught by %q, want %q", v.Invariant, audit.InvReconstructible)
	}
}

// corruptingDesign is a test-only design with no logging at all whose
// crash flush overwrites two durable data words: a deliberate
// conservation bug with more than one victim.
type corruptingDesign struct {
	dev     *pm.Device
	victims []mem.Addr
}

func (d *corruptingDesign) Name() string                                                 { return "corrupting" }
func (d *corruptingDesign) TxBegin(int, sim.Cycle) sim.Cycle                             { return 0 }
func (d *corruptingDesign) Store(int, mem.Addr, mem.Word, mem.Word, sim.Cycle) sim.Cycle { return 0 }
func (d *corruptingDesign) TxEnd(int, sim.Cycle) sim.Cycle                               { return 0 }
func (d *corruptingDesign) CollectStats(*stats.Run)                                      {}

func (d *corruptingDesign) CachelineEvicted(_ sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	d.dev.Populate(la, data[:])
}

func (d *corruptingDesign) Crash(sim.Cycle) {
	for _, a := range d.victims {
		d.dev.PokeWord(a, d.dev.PeekWord(a)^0xdead)
	}
}

// When a crash alters several durable words, the conservation violation
// must name the same word on every run — failed campaigns' error text is
// persisted in checkpoint streams, which must not differ between reruns
// or on resume. The check runs in WrittenWords (first-write) order, so
// the earlier-written victim is the one reported.
func TestConservationViolationDeterministic(t *testing.T) {
	words := make([]mem.Addr, 16)
	for i := range words {
		words[i] = mem.Addr(0x8000 + i*mem.LineSize)
	}
	victims := []mem.Addr{words[3], words[11]}
	var first string
	for run := 0; run < 20; run++ {
		m := New(Config{
			Cores: 1,
			PM:    pm.DefaultConfig(),
			Cache: cache.DefaultHierarchyConfig(),
			Design: func(env *logging.Env) logging.Design {
				return &corruptingDesign{dev: env.PM, victims: victims}
			},
		})
		m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, 0)
		for i, a := range words {
			m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: a, Data: mem.Word(i + 1)}, sim.Cycle(1+i))
		}
		m.Exec(0, sim.Op{Kind: sim.OpTxEnd}, 100)
		v := auditViolation(t, func() { m.InjectCrash(101) })
		if v == nil {
			t.Fatal("two corrupted durable words not caught at crash")
		}
		if v.Invariant != audit.InvConservation {
			t.Fatalf("caught by %q, want %q", v.Invariant, audit.InvConservation)
		}
		if run == 0 {
			first = v.Message
			if want := victims[0].String(); !strings.Contains(first, want) {
				t.Fatalf("violation %q does not name the first-written victim %s", first, want)
			}
			continue
		}
		if v.Message != first {
			t.Fatalf("run %d reports %q, run 0 reported %q", run, v.Message, first)
		}
	}
}
