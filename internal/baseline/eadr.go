package baseline

import (
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/stats"
)

// EADRSW models software undo+redo logging on an eADR platform (§II-C):
// the whole cache hierarchy is battery-backed, so the clwb/sfence pairs of
// Fig. 1a disappear — but the log entries are still composed with ordinary
// stores, in an append-only stream with ever-fresh addresses. Those writes
// pollute the caches: they consume L1 sets, evict application data and
// defeat locality, which is exactly the first cost the paper charges
// against "just use eADR" (the second being the battery, Table IV).
//
// At a crash the caches are persistent: everything dirty is flushed by the
// big battery, so both the log stream and the data survive, and recovery
// replays committed transactions / revokes uncommitted ones from the log
// exactly as it would from a PM-resident log.
type EADRSW struct {
	env     *logging.Env
	inTx    []bool
	txid    []uint16
	logHead []mem.Addr // per-core append cursor inside the thread log area
	tail    []mem.Word // per-core value of the word holding logHead
	logSeq  []uint8    // per-core record sequence number (on-media seal)
	logs    int64
}

var _ logging.Design = (*EADRSW)(nil)
var _ logging.CachePersistor = (*EADRSW)(nil)

// NewEADRSW builds the eADR software-logging design.
func NewEADRSW(env *logging.Env) logging.Design {
	e := &EADRSW{
		env:    env,
		inTx:   make([]bool, env.Cores),
		txid:   make([]uint16, env.Cores),
		tail:   make([]mem.Word, env.Cores),
		logSeq: make([]uint8, env.Cores),
	}
	for i := 0; i < env.Cores; i++ {
		base, _ := env.PM.Config().Layout.ThreadLogArea(i, env.Cores)
		e.logHead = append(e.logHead, base)
	}
	return e
}

// Name implements logging.Design.
func (e *EADRSW) Name() string { return "eADR-SW" }

// PersistCachesAtCrash implements logging.CachePersistor: eADR's battery
// flushes the entire dirty cache contents to PM on power failure.
func (e *EADRSW) PersistCachesAtCrash() bool { return true }

// TxBegin implements logging.Design.
func (e *EADRSW) TxBegin(core int, now sim.Cycle) sim.Cycle {
	e.inTx[core] = true
	e.txid[core]++
	return 0
}

// Store composes a 26 B undo+redo record with ordinary cached stores at a
// fresh append address — cache-polluting writes, but no persist
// instructions: the caches are the persistence domain.
func (e *EADRSW) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	if !e.inTx[core] {
		return 0
	}
	im := logging.Image{
		Kind: logging.ImageUndoRedo, TID: uint8(core), TxID: e.txid[core],
		Addr: addr.Word(), Data: old, Data2: new,
	}
	var buf [logging.MaxSealedBytes]byte
	n := im.Seal(buf[:], e.logSeq[core])
	e.logSeq[core]++
	stall := SWLogInsOverhead + e.appendCached(core, buf[:n], now)
	e.logs++
	return stall
}

// TxEnd appends the commit marker — a single cached record, no fences.
func (e *EADRSW) TxEnd(core int, now sim.Cycle) sim.Cycle {
	e.inTx[core] = false
	var buf [logging.CommitBytes + logging.SealBytes]byte
	n := logging.CommitImage(uint8(core), e.txid[core]).Seal(buf[:], e.logSeq[core])
	e.logSeq[core]++
	return e.appendCached(core, buf[:n], now)
}

// appendCached writes b at the core's log cursor through the caches, one
// word at a time (read-modify-write at record boundaries, the way a
// software memcpy into the log behaves), and advances the cursor. The
// log is append-only, so the only word it ever rewrites is the one
// holding the cursor, whose value tail keeps; a word the cursor enters
// fresh still holds the device's bytes.
func (e *EADRSW) appendCached(core int, b []byte, now sim.Cycle) sim.Cycle {
	addr := e.logHead[core]
	e.logHead[core] += mem.Addr(len(b))
	var stall sim.Cycle
	for len(b) > 0 {
		w := addr.Word()
		off := int(addr - w)
		n := min(mem.WordSize-off, len(b))
		cur := e.tail[core]
		if off == 0 {
			cur = e.env.PM.PeekWord(w)
		}
		var wb [mem.WordSize]byte
		putWordBytes(wb[:], cur)
		copy(wb[off:off+n], b[:n])
		e.tail[core] = wordFrom(wb[:])
		_, lat := e.env.Cache.Store(core, w, e.tail[core], now+stall)
		stall += lat
		addr += mem.Addr(n)
		b = b[n:]
	}
	return stall
}

// CachelineEvicted writes dirty evictions (application data or cached log
// lines) to PM.
func (e *EADRSW) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	e.env.PM.Write(now, la, data[:])
}

// Crash needs no selective flush: the machine persists the caches
// wholesale (PersistCachesAtCrash), which covers logs and data alike.
func (e *EADRSW) Crash(now sim.Cycle) {}

// CollectStats implements logging.Design.
func (e *EADRSW) CollectStats(r *stats.Run) {
	r.LogEntriesCreated += e.logs
}

func putWordBytes(b []byte, w mem.Word) {
	for i := 0; i < mem.WordSize; i++ {
		b[i] = byte(w >> (8 * i))
	}
}
