package logging

import (
	"silo/internal/cache"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
	"silo/internal/stats"
)

// Env is everything a logging design needs from the simulated machine.
type Env struct {
	PM     *pm.Device
	Cache  *cache.Hierarchy
	Region *RegionWriter
	Cores  int

	// LogBufEntries is the per-core log buffer capacity (default 20).
	LogBufEntries int
	// LogBufLatency is the log buffer access latency in cycles (Fig. 15
	// sweeps 8–128; it is off the critical path in Silo).
	LogBufLatency sim.Cycle
}

// PersistPath is the on-chip cost, in cycles, of synchronously pushing
// one item from the core down to the ADR persistence domain (the
// L1→L2→LLC→MC path a clwb-like flush traverses). Designs whose ordering
// constraints put persists on the critical path (Fig. 3) pay it per
// synchronous persist; Silo's log path bypasses the caches and never
// does.
const PersistPath sim.Cycle = 60

// Design is a hardware atomic-durability scheme under test: Silo or one of
// the paper's baselines. The machine calls the hooks with operations in
// nondecreasing time order; every returned Cycle is *extra* latency the
// issuing core stalls beyond the plain cache access — the design's
// ordering constraints (§II-D) made concrete.
type Design interface {
	Name() string

	// TxBegin starts a transaction on core.
	TxBegin(core int, now sim.Cycle) sim.Cycle

	// Store is called after the cache write completed; old is the word's
	// previous value captured from L1D, new the stored value.
	Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle

	// TxEnd commits core's transaction; the return value is the commit
	// stall (waiting for persists, flushes, or just an on-chip ACK).
	TxEnd(core int, now sim.Cycle) sim.Cycle

	// CachelineEvicted is called when a dirty line leaves the LLC toward
	// the memory controller. The design routes it: most schemes write it
	// to the PM data region; LAD buffers uncommitted lines in the MC;
	// Silo additionally sets flush-bits on matching logs (§III-D).
	CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte)

	// Crash flushes whatever the design keeps in battery/ADR domains so
	// recovery can run (§III-G). It must not charge run statistics.
	Crash(now sim.Cycle)

	// CollectStats adds the design's counters to the run record.
	CollectStats(r *stats.Run)
}

// MCReader is implemented by designs whose memory-controller buffering can
// shadow PM contents (LAD): a cache fill must observe buffered lines.
type MCReader interface {
	// MCBuffered returns the buffered copy of la, if the MC holds one.
	MCBuffered(la mem.Addr) ([mem.LineSize]byte, bool)
}

// Ticker is implemented by designs with time-driven behaviour (FWB's
// periodic force write-back). The machine calls Tick before each op.
type Ticker interface {
	Tick(now sim.Cycle)
}

// CachePersistor is implemented by designs whose platform battery-backs
// the entire cache hierarchy (eADR, BBB): at a crash the machine flushes
// all dirty lines to PM instead of dropping them.
type CachePersistor interface {
	PersistCachesAtCrash() bool
}

// Factory builds a design over an environment. The harness keeps a
// registry of factories keyed by design name.
type Factory func(env *Env) Design
