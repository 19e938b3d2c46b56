package baseline

import (
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/stats"
)

// FWBInterval is the force write-back period from §VI-A: 3,000,000 cycles.
const FWBInterval sim.Cycle = 3_000_000

// FWB models "Steal but no force" (Ogleari et al., HPCA'18): hardware
// undo+redo logging where every store's log entry is forced to the PM log
// region before the corresponding data can leave the caches, and a
// hardware walker force-writes-back all dirty cachelines every FWBInterval
// cycles so logs can be pruned. Commit waits for all of the transaction's
// log writes to be durable; the per-store log write itself is off the
// critical path (the log unit runs in the background).
type FWB struct {
	env        *logging.Env
	inTx       []bool
	txid       []uint16
	lastAccept []sim.Cycle // latest log-write acceptance per core
	nextFWB    sim.Cycle
	logs       int64
	forcedWBs  int64
}

var _ logging.Design = (*FWB)(nil)
var _ logging.Ticker = (*FWB)(nil)

// NewFWB builds the FWB design.
func NewFWB(env *logging.Env) logging.Design {
	return &FWB{
		env:        env,
		inTx:       make([]bool, env.Cores),
		txid:       make([]uint16, env.Cores),
		lastAccept: make([]sim.Cycle, env.Cores),
		nextFWB:    FWBInterval,
	}
}

// Name implements logging.Design.
func (f *FWB) Name() string { return "FWB" }

// TxBegin implements logging.Design.
func (f *FWB) TxBegin(core int, now sim.Cycle) sim.Cycle {
	f.inTx[core] = true
	f.txid[core]++
	f.lastAccept[core] = 0
	return 0
}

// Store emits one undo+redo log entry per write to the PM log region in
// the background; the store does not stall, but commit must wait for the
// acceptance of every one of these writes.
func (f *FWB) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	if !f.inTx[core] {
		return 0
	}
	im := logging.Image{
		Kind: logging.ImageUndoRedo, TID: uint8(core), TxID: f.txid[core],
		Addr: addr.Word(), Data: old, Data2: new,
	}
	// The log is forced to the ADR domain before the data may leave the
	// caches: the store stalls for the on-chip persist path (and any WPQ
	// backpressure), FWB's per-write ordering constraint.
	t := now + logging.PersistPath
	accept := f.env.Region.Append(t, core, []logging.Image{im})
	if accept < t {
		accept = t
	}
	if accept > f.lastAccept[core] {
		f.lastAccept[core] = accept
	}
	f.logs++
	return accept - now
}

// TxEnd persists a commit record and stalls until it and the transaction's
// last log write were accepted into the ADR domain — the undo+redo
// durability rule of Fig. 3. Logs are pruned later, once the force
// write-back has made the data durable.
func (f *FWB) TxEnd(core int, now sim.Cycle) sim.Cycle {
	f.inTx[core] = false
	accept := f.env.Region.Append(now, core, []logging.Image{logging.CommitImage(uint8(core), f.txid[core])})
	if f.lastAccept[core] > accept {
		accept = f.lastAccept[core]
	}
	if accept > now {
		return accept - now
	}
	return 0
}

// Tick runs the periodic force write-back; afterwards every idle thread's
// logs describe only durable data and can be pruned.
func (f *FWB) Tick(now sim.Cycle) {
	if now < f.nextFWB {
		return
	}
	f.nextFWB = now + FWBInterval
	f.forcedWBs += int64(f.env.Cache.ForceWriteBackAll(now))
	for c := range f.inTx {
		if !f.inTx[c] {
			f.env.Region.Truncate(c)
		}
	}
}

// CachelineEvicted writes dirty evictions (natural or forced) to the data
// region; the per-store log force guarantees the log already landed.
func (f *FWB) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	f.env.PM.Write(now, la, data[:])
}

// Crash has nothing extra to save: logs are persisted per store.
func (f *FWB) Crash(now sim.Cycle) {}

// CollectStats implements logging.Design.
func (f *FWB) CollectStats(r *stats.Run) {
	r.LogEntriesCreated += f.logs
	r.LogEntriesFlushed += f.logs
}
