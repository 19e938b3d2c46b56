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
package recovery

import (
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
	// failure during recovery itself (0 = run to completion). Recovery
	// never mutates the log region, so a subsequent pass converges.
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

// Recover runs the recovery procedure over every thread's log area and
// applies the resulting writes directly to the PM data region (recovery
// I/O is not part of the evaluated run's traffic).
func Recover(dev *pm.Device, region *logging.RegionWriter) Report {
	return RecoverOpts(dev, region, Options{})
}

// RecoverOpts is Recover with fault-injection options.
func RecoverOpts(dev *pm.Device, region *logging.RegionWriter, opt Options) Report {
	rep := Report{Complete: true}
	write := func(addr mem.Addr, w mem.Word) bool {
		if opt.MaxWrites > 0 && rep.AppliedWrites >= opt.MaxWrites {
			rep.Complete = false
			return false
		}
		dev.PokeWord(addr, w)
		rep.AppliedWrites++
		return true
	}
	scans := region.ScanAllChecked()
	for t, sr := range scans {
		opt.Telemetry.RecoveryScan(t, opt.Now, len(sr.Images), sr.Quarantined)
	}
	walk(scans, &rep, write)
	opt.Telemetry.RecoveryApply(opt.Now, rep.RedoApplied, rep.UndoApplied, rep.Discarded)
	return rep
}

// RecoverRestarting runs recovery to completion, crashing the pass after
// every `every` applied words (<= 0: never). Each retry's battery lasts
// twice as long, so the loop terminates, and recovery never mutates the
// log, so restarting from scratch is legal. It returns the completed
// pass's report and the number of re-crashes survived.
func RecoverRestarting(dev *pm.Device, region *logging.RegionWriter, every int, opt Options) (Report, int) {
	opt.MaxWrites = every
	for restarts := 0; ; restarts++ {
		if rep := RecoverOpts(dev, region, opt); rep.Complete {
			return rep, restarts
		}
		opt.MaxWrites *= 2
	}
}

// Resolved runs the recovery procedure *symbolically*: the writes a full
// pass would apply, as a map, without touching the device. The audit
// layer uses it at crash time to prove every committed word is
// reconstructible from the durable domains (durable data overlaid with
// the resolved log writes) before recovery itself ever runs.
func Resolved(region *logging.RegionWriter) map[mem.Addr]mem.Word {
	var rep Report
	m := make(map[mem.Addr]mem.Word)
	walk(region.ScanAllChecked(), &rep, func(a mem.Addr, w mem.Word) bool {
		m[a] = w
		return true
	})
	return m
}

// walk is the recovery procedure over an already-scanned log region,
// with the data-region writes abstracted behind apply; apply returning
// false aborts the walk immediately (a power failure mid-recovery). The
// counters in rep reflect exactly the work performed up to that point.
func walk(all []logging.ScanResult, rep *Report, apply func(mem.Addr, mem.Word) bool) {
	// Pass 1: the ID tuples name the committed transactions (§III-G).
	committed := make(map[txKey]bool)
	for _, sr := range all {
		rep.Quarantined += sr.Quarantined
		for _, im := range sr.Images {
			rep.TotalRecords++
			if im.Kind == logging.ImageCommit {
				committed[txKey{im.TID, im.TxID}] = true
				rep.CommittedTx++
			}
		}
	}

	// Pass 2, per thread: replay committed redo in append order, then
	// revoke uncommitted undo in reverse append order. Threads write
	// disjoint words (isolation is software-provided, §III-A), so the
	// per-thread ordering is the only one that matters.
	for _, sr := range all {
		var undo []logging.Image
		for _, im := range sr.Images {
			if im.Kind == logging.ImageCommit {
				continue
			}
			k := txKey{im.TID, im.TxID}
			if committed[k] {
				if im.FlushBit {
					// Overflowed undo log of a committed transaction:
					// the data already reached PM; discard (§III-G).
					rep.Discarded++
					continue
				}
				switch im.Kind {
				case logging.ImageRedo:
					if !apply(im.Addr, im.Data) {
						return
					}
					rep.RedoApplied++
				case logging.ImageUndoRedo:
					if !apply(im.Addr, im.Data2) {
						return
					}
					rep.RedoApplied++
				case logging.ImageUndo:
					// An undo record of a committed transaction without
					// its flush-bit set: its data is already durable
					// (it was evicted or in-place updated); discard.
					rep.Discarded++
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
				rep.Discarded++
			}
		}
		for i := len(undo) - 1; i >= 0; i-- {
			if !apply(undo[i].Addr, undo[i].Data) {
				return
			}
			rep.UndoApplied++
		}
	}
}
