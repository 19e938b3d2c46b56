package baseline

import (
	"slices"

	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/stats"
)

// This file implements the three schemes the paper uses to motivate
// hardware logging (§II-B, Fig. 1a) and to explain the ordering
// constraints of the two pure logging disciplines (§II-D, Fig. 3):
//
//   - SWLog:  software undo+redo write-ahead logging — clwb+sfence on the
//     critical path of every store, plus a commit-time flush of every
//     dirty line. The paper reports software logging costs up to 70 % of
//     throughput (§II-B); this design reproduces that regime.
//   - UndoHW: hardware undo logging (ATOM-shaped). Logs persist in the
//     background, but commit must wait until *all updated data* is
//     persisted (Fig. 3, "Undo").
//   - RedoHW: hardware redo logging (ReDU-shaped). In-place updates are
//     blocked until the redo logs persist: evicted transactional lines
//     are held in a volatile staging buffer and released at commit, which
//     waits only for the logs (Fig. 3, "Redo").
//
// They are not part of the paper's Fig. 11/12 grid (FWB already subsumes
// software and single-discipline loggings there, §VI-A), but they power
// the ordering-constraint experiment and broaden the recovery test matrix.

// SWLogInsOverhead approximates the instruction overhead of composing a
// log entry in software (address computation, stores, clwb issue).
const SWLogInsOverhead sim.Cycle = 12

// SWLog is software undo+redo write-ahead logging.
type SWLog struct {
	env   *logging.Env
	inTx  []bool
	txid  []uint16
	txSet []map[mem.Addr]struct{}
	order []mem.Addr // sort scratch for the commit-time flush walk
	logs  int64
}

var _ logging.Design = (*SWLog)(nil)

// NewSWLog builds the software logging design.
func NewSWLog(env *logging.Env) logging.Design {
	s := &SWLog{
		env:  env,
		inTx: make([]bool, env.Cores),
		txid: make([]uint16, env.Cores),
	}
	for i := 0; i < env.Cores; i++ {
		s.txSet = append(s.txSet, make(map[mem.Addr]struct{}))
	}
	return s
}

// Name implements logging.Design.
func (s *SWLog) Name() string { return "SWLog" }

// TxBegin implements logging.Design.
func (s *SWLog) TxBegin(core int, now sim.Cycle) sim.Cycle {
	s.inTx[core] = true
	s.txid[core]++
	return 0
}

// Store composes the log entry in software and persists it with
// clwb+sfence before the program may continue — everything on the
// critical path (Fig. 1a).
func (s *SWLog) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	if !s.inTx[core] {
		return 0
	}
	s.txSet[core][addr.Line()] = struct{}{}
	im := logging.Image{
		Kind: logging.ImageUndoRedo, TID: uint8(core), TxID: s.txid[core],
		Addr: addr.Word(), Data: old, Data2: new,
	}
	t := now + SWLogInsOverhead + s.env.PersistPath
	if accept := s.env.Region.Append(t, core, []logging.Image{im}); accept > t {
		t = accept
	}
	s.logs++
	return t - now
}

// TxEnd flushes every dirty line of the write set with clwb and fences —
// the sfence-delimited epilogue of Fig. 1a — then persists the commit
// record.
func (s *SWLog) TxEnd(core int, now sim.Cycle) sim.Cycle {
	s.inTx[core] = false
	t := now
	s.order = sortedAddrs(s.order, s.txSet[core])
	for _, la := range s.order {
		if data, dirty := s.env.Cache.CleanLine(core, la); dirty {
			t += s.env.PersistPath
			if accept, _ := s.env.PM.Write(t, la, data[:]); accept > t {
				t = accept
			}
		}
		delete(s.txSet[core], la)
	}
	t += s.env.PersistPath
	if accept := s.env.Region.Append(t, core, []logging.Image{logging.CommitImage(uint8(core), s.txid[core])}); accept > t {
		t = accept
	}
	return t - now
}

// CachelineEvicted writes dirty evictions to the data region; their log
// entries were persisted synchronously at store time.
func (s *SWLog) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	s.env.PM.Write(now, la, data[:])
}

// Crash needs no action: logs and commit records are already durable.
func (s *SWLog) Crash(now sim.Cycle) {}

// CollectStats implements logging.Design.
func (s *SWLog) CollectStats(r *stats.Run) {
	r.LogEntriesCreated += s.logs
	r.LogEntriesFlushed += s.logs
}

// UndoHW is hardware undo logging in the shape of ATOM: the undo log is
// written to PM in the background before the data may leave the caches,
// and commit stalls until all updated data has been persisted.
type UndoHW struct {
	env   *logging.Env
	inTx  []bool
	txid  []uint16
	txSet []map[mem.Addr]struct{}
	order []mem.Addr // sort scratch for the commit-time flush walk
	logs  int64
}

var _ logging.Design = (*UndoHW)(nil)

// NewUndoHW builds the hardware undo design.
func NewUndoHW(env *logging.Env) logging.Design {
	u := &UndoHW{
		env:  env,
		inTx: make([]bool, env.Cores),
		txid: make([]uint16, env.Cores),
	}
	for i := 0; i < env.Cores; i++ {
		u.txSet = append(u.txSet, make(map[mem.Addr]struct{}))
	}
	return u
}

// Name implements logging.Design.
func (u *UndoHW) Name() string { return "UndoHW" }

// TxBegin implements logging.Design.
func (u *UndoHW) TxBegin(core int, now sim.Cycle) sim.Cycle {
	u.inTx[core] = true
	u.txid[core]++
	return 0
}

// Store writes an undo record in the background (hardware log unit); the
// store itself does not stall.
func (u *UndoHW) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	if !u.inTx[core] {
		return 0
	}
	u.txSet[core][addr.Line()] = struct{}{}
	u.env.Region.Append(now, core, []logging.Image{{
		Kind: logging.ImageUndo, TID: uint8(core), TxID: u.txid[core],
		Addr: addr.Word(), Data: old,
	}})
	u.logs++
	return 0
}

// TxEnd waits for *all updated data* to persist (Fig. 3, Undo): every
// dirty line of the write set is flushed down the persist path, and only
// then may the transaction commit and its logs be truncated.
func (u *UndoHW) TxEnd(core int, now sim.Cycle) sim.Cycle {
	u.inTx[core] = false
	t := now
	u.order = sortedAddrs(u.order, u.txSet[core])
	for _, la := range u.order {
		if data, dirty := u.env.Cache.CleanLine(core, la); dirty {
			t += u.env.PersistPath
			if accept, _ := u.env.PM.Write(t, la, data[:]); accept > t {
				t = accept
			}
		}
		delete(u.txSet[core], la)
	}
	// All data durable: the undo logs are dead and can be truncated
	// atomically with the commit point.
	u.env.Region.Truncate(core)
	return t - now
}

// CachelineEvicted writes dirty evictions to the data region (their undo
// logs were issued at store time, strictly earlier).
func (u *UndoHW) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	u.env.PM.Write(now, la, data[:])
}

// Crash needs no action: undo logs of the in-flight transaction are in PM.
func (u *UndoHW) Crash(now sim.Cycle) {}

// CollectStats implements logging.Design.
func (u *UndoHW) CollectStats(r *stats.Run) {
	r.LogEntriesCreated += u.logs
	r.LogEntriesFlushed += u.logs
}

// RedoHW is hardware redo logging in the shape of ReDU: redo records are
// written in the background, in-place updates are forbidden until the
// logs persist, so evicted transactional lines park in a volatile staging
// buffer and drain at commit. Commit waits only for the logs.
type RedoHW struct {
	env        *logging.Env
	inTx       []bool
	txid       []uint16
	txSet      []map[mem.Addr]struct{}
	lastAccept []sim.Cycle
	staged     map[mem.Addr]stagedLine
	order      []mem.Addr // sort scratch for the release list
	logs       int64
}

type stagedLine struct {
	data  [mem.LineSize]byte
	owner int
}

var _ logging.Design = (*RedoHW)(nil)
var _ logging.MCReader = (*RedoHW)(nil)

// NewRedoHW builds the hardware redo design.
func NewRedoHW(env *logging.Env) logging.Design {
	r := &RedoHW{
		env:        env,
		inTx:       make([]bool, env.Cores),
		txid:       make([]uint16, env.Cores),
		lastAccept: make([]sim.Cycle, env.Cores),
		staged:     make(map[mem.Addr]stagedLine),
	}
	for i := 0; i < env.Cores; i++ {
		r.txSet = append(r.txSet, make(map[mem.Addr]struct{}))
	}
	return r
}

// Name implements logging.Design.
func (r *RedoHW) Name() string { return "RedoHW" }

// TxBegin implements logging.Design.
func (r *RedoHW) TxBegin(core int, now sim.Cycle) sim.Cycle {
	r.inTx[core] = true
	r.txid[core]++
	r.lastAccept[core] = 0
	return 0
}

// Store writes a redo record in the background and tracks the write set.
func (r *RedoHW) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	if !r.inTx[core] {
		return 0
	}
	r.txSet[core][addr.Line()] = struct{}{}
	accept := r.env.Region.Append(now, core, []logging.Image{{
		Kind: logging.ImageRedo, TID: uint8(core), TxID: r.txid[core],
		Addr: addr.Word(), Data: new,
	}})
	if accept > r.lastAccept[core] {
		r.lastAccept[core] = accept
	}
	r.logs++
	return 0
}

// CachelineEvicted parks uncommitted transactional lines in the staging
// buffer (in-place updates are forbidden before the logs persist);
// everything else passes through.
func (r *RedoHW) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	for c := range r.txSet {
		if !r.inTx[c] {
			continue
		}
		if _, ok := r.txSet[c][la]; ok {
			r.staged[la] = stagedLine{data: data, owner: c}
			return
		}
	}
	r.env.PM.Write(now, la, data[:])
}

// MCBuffered lets cache fills observe staged lines.
func (r *RedoHW) MCBuffered(la mem.Addr) ([mem.LineSize]byte, bool) {
	if sl, ok := r.staged[la.Line()]; ok {
		return sl.data, true
	}
	return [mem.LineSize]byte{}, false
}

// TxEnd waits for the redo logs and the commit record to persist (Fig. 3,
// Redo), then releases the staged lines; the cached remainder drains
// through natural evictions, now permitted.
func (r *RedoHW) TxEnd(core int, now sim.Cycle) sim.Cycle {
	r.inTx[core] = false
	t := now + r.env.PersistPath
	if r.lastAccept[core] > t {
		t = r.lastAccept[core]
	}
	if accept := r.env.Region.Append(t, core, []logging.Image{logging.CommitImage(uint8(core), r.txid[core])}); accept > t {
		t = accept
	}
	release := r.order[:0]
	for la, sl := range r.staged {
		if sl.owner == core {
			release = append(release, la)
		}
	}
	slices.Sort(release)
	r.order = release
	for _, la := range release {
		sl := r.staged[la]
		r.env.PM.Write(t, la, sl.data[:])
		delete(r.staged, la)
	}
	for la := range r.txSet[core] {
		delete(r.txSet[core], la)
	}
	// Redo logs live until the covered data is durable; GC when the area
	// fills (same policy as MorLog — only multi-million-transaction runs
	// reach this).
	if r.env.Region.Used(core) > r.env.Region.AreaSize(core)/2 {
		r.env.Cache.ForceWriteBackAll(t)
		r.env.Region.Truncate(core)
	}
	return t - now
}

// Crash drops the volatile staging buffer; committed transactions are
// recovered from their redo logs, uncommitted ones never touched PM.
func (r *RedoHW) Crash(now sim.Cycle) {
	for la := range r.staged {
		delete(r.staged, la)
	}
}

// CollectStats implements logging.Design.
func (r *RedoHW) CollectStats(run *stats.Run) {
	run.LogEntriesCreated += r.logs
	run.LogEntriesFlushed += r.logs
}
