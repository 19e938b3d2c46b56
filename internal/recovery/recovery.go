// Package recovery implements the post-crash procedure of §III-G: scan the
// distributed PM log region, identify committed transactions by their ID
// tuples, replay the redo logs of committed transactions whose in-place
// updates had not finished, and revoke the partial updates of uncommitted
// transactions using their undo logs.
//
// The same procedure recovers the baseline designs' logs (full undo+redo
// records with or without commit markers), which lets the test suite
// verify atomic durability for every evaluated scheme, not just Silo.
//
// The scan is checked: every record carries a CRC and sequence number
// (see logging.Seal), and a torn or corrupt record is quarantined — the
// scan stops there, and in particular a torn commit ID tuple leaves its
// transaction *uncommitted*, the safe default (its undo logs revoke the
// partial updates instead of a half-parsed tuple replaying garbage).
//
// A crashed log is parsed once (Parse) and every pass replays that Log.
// Recovery writes only the data region as long as every record names a
// data address; a pass that does write the log region (a CRC-valid
// garbage record) marks the Log stale, and the next pass re-parses it,
// so every pass applies exactly what a fresh scan would.
package recovery

import (
	"slices"
	"sync/atomic"

	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// Report summarizes one recovery pass.
type Report struct {
	CommittedTx  int // transactions found committed via ID tuples
	RedoApplied  int // redo records replayed
	UndoApplied  int // undo records revoked
	Discarded    int // flush-bit-1 records of committed transactions
	Quarantined  int // torn/corrupt records the checked scan refused
	TotalRecords int

	// AppliedWrites counts data-region words written by this pass;
	// Complete is false when Options.MaxWrites stopped the pass early
	// (a simulated crash during recovery).
	AppliedWrites int
	Complete      bool
}

// Options tunes a recovery pass.
type Options struct {
	// MaxWrites stops the pass after this many applied words — a power
	// failure during recovery itself (0 = run to completion). A pass
	// writes the data region only, unless a CRC-valid record names a
	// log-region address: such a write marks the Log stale and the next
	// pass re-parses the region, so a subsequent pass converges to what
	// a fresh scan would apply.
	MaxWrites int

	// Telemetry receives per-thread scan and replay probe events
	// (nil disables probes); Now stamps them (recovery runs outside the
	// crashed run's clock, so the caller supplies the crash cycle).
	Telemetry *telemetry.Recorder
	Now       sim.Cycle
}

type txKey struct {
	tid  uint8
	txid uint16
}

// Log is one checked parse of a crashed log region, classified once: the
// per-thread scan counts, the pass-1 totals, and the pass-2 actions in
// the order a pass applies them. The crash-time audit (Resolved), every
// restarted pass and the idempotence pass replay the same Log instead of
// re-scanning the device.
//
// The stale rule keeps every pass equal to a fresh scan: a pass whose
// applied write lands in the log region (mem.Layout.InLog) may have
// changed what a scan would read, so it marks the Log stale and the next
// pass or Resolved re-parses the region first.
type Log struct {
	region  *logging.RegionWriter
	threads []threadScan
	totals  Report // CommittedTx, Quarantined, TotalRecords
	actions []action
	stale   bool
}

// threadScan is one thread's checked-scan result as the probes report it.
type threadScan struct{ records, quarantined int }

type actionKind uint8

const (
	actRedo    actionKind = iota // replay a committed transaction's new value
	actUndo                      // revoke an uncommitted write to its old value
	actDiscard                   // a record the pass counts but never applies
)

type action struct {
	addr mem.Addr
	val  mem.Word
	kind actionKind
}

// parses counts region parses, for tests that bound them per campaign.
var parses atomic.Int64

// Parse scans every thread's log area (checked: CRC and sequence per
// record) and classifies the records once.
func Parse(region *logging.RegionWriter) *Log {
	l := &Log{region: region}
	l.parse()
	return l
}

// parse (re)builds the Log from the region's durable bytes.
func (l *Log) parse() {
	parses.Add(1)
	all := l.region.ScanAllChecked()
	l.threads = l.threads[:0]
	l.totals = Report{}
	l.stale = false

	// Pass 1: the ID tuples name the committed transactions (§III-G).
	committed := make(map[txKey]bool)
	for _, sr := range all {
		l.threads = append(l.threads, threadScan{len(sr.Images), sr.Quarantined})
		l.totals.Quarantined += sr.Quarantined
		l.totals.TotalRecords += len(sr.Images)
		for _, im := range sr.Images {
			if im.Kind == logging.ImageCommit {
				committed[txKey{im.TID, im.TxID}] = true
				l.totals.CommittedTx++
			}
		}
	}

	// Pass 2, per thread: replay committed redo in append order, then
	// revoke uncommitted undo in reverse append order. Threads write
	// disjoint words (isolation is software-provided, §III-A), so the
	// per-thread ordering is the only one that matters. A transaction's
	// records run consecutively, so the committed set is consulted once
	// per run of records, not once per record.
	l.actions = slices.Grow(l.actions[:0], l.totals.TotalRecords)
	var undo []logging.Image
	key := txKey{}
	isCommitted := committed[key]
	for _, sr := range all {
		undo = undo[:0]
		for _, im := range sr.Images {
			if im.Kind == logging.ImageCommit {
				continue
			}
			if k := (txKey{im.TID, im.TxID}); k != key {
				key, isCommitted = k, committed[k]
			}
			if isCommitted {
				switch {
				case im.FlushBit:
					// Overflowed undo log of a committed transaction:
					// the data already reached PM; discard (§III-G).
					l.discard()
				case im.Kind == logging.ImageRedo:
					l.actions = append(l.actions, action{im.Addr, im.Data, actRedo})
				case im.Kind == logging.ImageUndoRedo:
					l.actions = append(l.actions, action{im.Addr, im.Data2, actRedo})
				case im.Kind == logging.ImageUndo:
					// An undo record of a committed transaction without
					// its flush-bit set: its data is already durable
					// (it was evicted or in-place updated); discard.
					l.discard()
				}
				continue
			}
			// Uncommitted: collect the old data for reverse revoke.
			switch im.Kind {
			case logging.ImageUndo, logging.ImageUndoRedo:
				undo = append(undo, im)
			case logging.ImageRedo:
				// A redo record without a commit tuple can only appear
				// if the crash flush was itself interrupted; ignoring it
				// is safe (the transaction is treated as aborted).
				l.discard()
			}
		}
		for i := len(undo) - 1; i >= 0; i-- {
			l.actions = append(l.actions, action{undo[i].Addr, undo[i].Data, actUndo})
		}
	}
}

func (l *Log) discard() { l.actions = append(l.actions, action{kind: actDiscard}) }

// Apply runs one recovery pass: it replays the Log's actions onto the
// device (recovery I/O is not part of the evaluated run's traffic),
// re-parsing first when an earlier pass made the Log stale. A pass
// stopped by opt.MaxWrites reports exactly the work done up to the write
// it could not make.
func (l *Log) Apply(dev *pm.Device, opt Options) Report {
	if l.stale {
		l.parse()
	}
	rep := l.totals
	rep.Complete = true
	for t, s := range l.threads {
		opt.Telemetry.RecoveryScan(t, opt.Now, s.records, s.quarantined)
	}
	layout := dev.Config().Layout
	for _, a := range l.actions {
		if a.kind == actDiscard {
			rep.Discarded++
			continue
		}
		if opt.MaxWrites > 0 && rep.AppliedWrites >= opt.MaxWrites {
			rep.Complete = false
			break
		}
		dev.PokeWord(a.addr, a.val)
		rep.AppliedWrites++
		if layout.InLog(a.addr) {
			l.stale = true
		}
		if a.kind == actRedo {
			rep.RedoApplied++
		} else {
			rep.UndoApplied++
		}
	}
	opt.Telemetry.RecoveryApply(opt.Now, rep.RedoApplied, rep.UndoApplied, rep.Discarded)
	return rep
}

// Resolved is the recovery procedure run *symbolically*: the writes a
// full pass would apply, as a map, without touching the device. The
// audit layer uses it at crash time to prove every committed word is
// reconstructible from the durable domains (durable data overlaid with
// the resolved log writes) before recovery itself ever runs.
func (l *Log) Resolved() map[mem.Addr]mem.Word {
	if l.stale {
		l.parse()
	}
	m := make(map[mem.Addr]mem.Word, len(l.actions))
	for _, a := range l.actions {
		if a.kind != actDiscard {
			m[a.addr] = a.val
		}
	}
	return m
}

// Recover parses the region and runs one complete recovery pass.
func Recover(dev *pm.Device, region *logging.RegionWriter) Report {
	return Parse(region).Apply(dev, Options{})
}

// RecoverRestarting runs recovery to completion, crashing the pass after
// every `every` applied words (<= 0: never). Each retry's battery lasts
// twice as long, so the loop terminates, and every pass replays the
// whole Log from the start (re-parsed when a pass made it stale), so
// restarting from scratch is legal. It returns the completed pass's
// report and the number of re-crashes survived.
func RecoverRestarting(dev *pm.Device, log *Log, every int, opt Options) (Report, int) {
	opt.MaxWrites = every
	for restarts := 0; ; restarts++ {
		if rep := log.Apply(dev, opt); rep.Complete {
			return rep, restarts
		}
		opt.MaxWrites *= 2
	}
}
