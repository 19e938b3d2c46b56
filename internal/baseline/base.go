// Package baseline implements the four hardware atomic-durability schemes
// the paper evaluates against Silo (§VI-A): Base, FWB, MorLog and LAD.
// Each follows the traditional "Log as Backup" methodology (or, for LAD,
// logless MC buffering), so together they span the design space of Fig. 2.
package baseline

import (
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/stats"
)

// Base is the paper's baseline: for every transactional store it
// synchronously persists an undo+redo log entry to the PM log region and
// then flushes the updated cacheline to the data region. Every ordering
// constraint of Fig. 3 lands on the critical path, and every store costs
// a log write plus a full line write — the highest traffic and the lowest
// throughput of the evaluated designs.
type Base struct {
	env   *logging.Env
	inTx  []bool
	txid  []uint16
	logs  int64
	lines int64
}

var _ logging.Design = (*Base)(nil)

// NewBase builds the Base design.
func NewBase(env *logging.Env) logging.Design {
	return &Base{env: env, inTx: make([]bool, env.Cores), txid: make([]uint16, env.Cores)}
}

// Name implements logging.Design.
func (b *Base) Name() string { return "Base" }

// TxBegin implements logging.Design.
func (b *Base) TxBegin(core int, now sim.Cycle) sim.Cycle {
	b.inTx[core] = true
	b.txid[core]++
	return 0
}

// Store persists the log entry, then the cacheline, stalling the core for
// both WPQ acceptances (log strictly before data).
func (b *Base) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	if !b.inTx[core] {
		return 0
	}
	im := logging.Image{
		Kind: logging.ImageUndoRedo, TID: uint8(core), TxID: b.txid[core],
		Addr: addr.Word(), Data: old, Data2: new,
	}
	// Synchronous log persist: the store waits for the entry to traverse
	// the on-chip path into the ADR domain, plus any WPQ backpressure.
	t := now + logging.PersistPath
	if accept := b.env.Region.Append(t, core, []logging.Image{im}); accept > t {
		t = accept
	}
	b.logs++

	// clwb the updated line after the log is durable: a second synchronous
	// persist, strictly ordered behind the log.
	if data, dirty := b.env.Cache.CleanLine(core, addr.Line()); dirty {
		t += logging.PersistPath
		if accept, _ := b.env.PM.Write(t, addr.Line(), data[:]); accept > t {
			t = accept
		}
		b.lines++
	}
	return t - now
}

// TxEnd is free: everything was persisted store by store.
func (b *Base) TxEnd(core int, now sim.Cycle) sim.Cycle {
	b.inTx[core] = false
	b.env.Region.Truncate(core)
	return 0
}

// CachelineEvicted writes natural dirty evictions to the data region.
func (b *Base) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	b.env.PM.Write(now, la, data[:])
}

// Crash has nothing volatile to save: logs and data are already in PM.
func (b *Base) Crash(now sim.Cycle) {}

// CollectStats implements logging.Design.
func (b *Base) CollectStats(r *stats.Run) {
	r.LogEntriesCreated += b.logs
	r.LogEntriesFlushed += b.logs
}
