package baseline

import (
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/stats"
)

// MorLogBufEntries is the per-core on-chip log staging capacity we grant
// MorLog (its persist buffer plus L1-resident logs).
const MorLogBufEntries = 64

// MorLog models morphable logging (Wei et al., ISCA'20): undo+redo log
// entries are staged on chip, and same-word updates are morphed so only
// the oldest old data and the newest new data survive — eliminating the
// intermediate redo data that FWB writes per store. At commit, the staged
// (merged) entries are flushed to the PM log region one entry at a time,
// and the transaction stalls until all of them are durable (the paper's
// §II-D: MorLog "waits for flushing all logs in the L1 cache and log
// buffers to PM before commit"). Data reaches the PM data region through
// natural cacheline evictions.
type MorLog struct {
	env  *logging.Env
	bufs []*logging.Buffer
	inTx []bool
	txid []uint16

	logs, merged, spilled int64
	spill                 [1]logging.Entry // staging-overflow scratch
}

var _ logging.Design = (*MorLog)(nil)

// NewMorLog builds the MorLog design.
func NewMorLog(env *logging.Env) logging.Design {
	m := &MorLog{
		env:  env,
		inTx: make([]bool, env.Cores),
		txid: make([]uint16, env.Cores),
	}
	for i := 0; i < env.Cores; i++ {
		m.bufs = append(m.bufs, logging.NewBuffer(MorLogBufEntries))
	}
	return m
}

// Name implements logging.Design.
func (m *MorLog) Name() string { return "MorLog" }

// TxBegin implements logging.Design.
func (m *MorLog) TxBegin(core int, now sim.Cycle) sim.Cycle {
	m.inTx[core] = true
	m.txid[core]++
	return 0
}

// Store stages the entry on chip, morphing same-word updates.
func (m *MorLog) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	if !m.inTx[core] {
		return 0
	}
	m.logs++
	buf := m.bufs[core]
	e := logging.Entry{TID: uint8(core), TxID: m.txid[core], Addr: addr.Word(), Old: old, New: new}
	if buf.Match(e.Addr) >= 0 {
		buf.Append(e)
		m.merged++
		return 0
	}
	if buf.Full() {
		// Staging overflow: spill the oldest entry to the log region in
		// the background to make room.
		m.flushEntries(core, now, buf.EvictOldest(m.spill[:0], 1), false)
		m.spilled++
	}
	buf.Append(e)
	return 0
}

// flushEntries pushes staged entries to the PM log region. When sync is
// true the entries drain serially into MorLog's ADR persist buffer (the
// commit-time durability wait) — a short on-chip hop per entry, because
// the persist buffer, not the WPQ, is the durability point; the PM write
// itself continues in the background. Spills during execution go in the
// background entirely.
func (m *MorLog) flushEntries(core int, now sim.Cycle, entries []logging.Entry, sync bool) sim.Cycle {
	t := now
	for _, e := range entries {
		im := logging.Image{
			Kind: logging.ImageUndoRedo, TID: e.TID, TxID: e.TxID,
			Addr: e.Addr, Data: e.Old, Data2: e.New,
		}
		if sync {
			t += logging.PersistPath / 4 // log buffer → ADR persist buffer
		}
		m.env.Region.Append(t, core, []logging.Image{im})
	}
	return t
}

// TxEnd flushes the staged (merged) log entries and a commit record to the
// PM log region and stalls until the last one is accepted — MorLog's
// durability wait ("waits for flushing all logs ... before commit").
func (m *MorLog) TxEnd(core int, now sim.Cycle) sim.Cycle {
	m.inTx[core] = false
	buf := m.bufs[core]
	last := m.flushEntries(core, now, buf.Entries(), true)
	buf.Reset()
	cr := m.env.Region.Append(last, core, []logging.Image{logging.CommitImage(uint8(core), m.txid[core])})
	if cr > last {
		last = cr
	}
	// Logs live until the data they cover is durable; when the area fills
	// up, force the covered data back and prune (background GC in the real
	// design). Rare: only multi-million-transaction runs reach this.
	if m.env.Region.Used(core) > m.env.Region.AreaSize(core)/2 {
		m.env.Cache.ForceWriteBackAll(now)
		m.env.Region.Truncate(core)
	}
	if last > now {
		return last - now
	}
	return 0
}

// CachelineEvicted writes dirty evictions to the data region. An eviction
// during a transaction is safe because the undo half of the staged entry
// is flushed at commit before the logs are pruned; we do not model the
// eager-undo corner case separately.
func (m *MorLog) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	m.env.PM.Write(now, la, data[:])
}

// Crash flushes the staged entries of in-flight transactions through
// MorLog's ADR persist buffer so recovery can revoke their partial
// updates. The records carry undo halves recovery cannot be correct
// without (evicted lines of the in-flight transaction), so they belong
// to the battery's guaranteed must-flush set (critical).
func (m *MorLog) Crash(now sim.Cycle) {
	for c := range m.bufs {
		if !m.inTx[c] {
			continue
		}
		images := make([]logging.Image, 0, m.bufs[c].Len())
		for _, e := range m.bufs[c].Entries() {
			images = append(images, logging.Image{
				Kind: logging.ImageUndoRedo, TID: e.TID, TxID: e.TxID,
				Addr: e.Addr, Data: e.Old, Data2: e.New,
			})
		}
		m.env.Region.AppendAtCrashCritical(c, images)
	}
}

// CollectStats implements logging.Design.
func (m *MorLog) CollectStats(r *stats.Run) {
	r.LogEntriesCreated += m.logs
	r.LogEntriesMerged += m.merged
	r.LogEntriesFlushed += m.logs - m.merged
	r.LogOverflows += m.spilled
}
