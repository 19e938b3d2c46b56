package recovery_test

import (
	"fmt"
	"reflect"
	"testing"

	"silo/internal/fault"
	"silo/internal/harness"
	"silo/internal/logging"
	"silo/internal/machine"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/recovery"
	"silo/internal/telemetry"
)

// The parsed-log path (one Parse, every pass an Apply) checked against a
// reference that re-scans the device and re-walks the records on every
// pass, as recovery worked before a crashed log was parsed once.

type txKey struct {
	tid  uint8
	txid uint16
}

// refPass is one reference recovery pass: a fresh checked scan, the
// committed set from the ID tuples, then per thread committed redo in
// append order and uncommitted undo in reverse, stopping at the first
// write past opt.MaxWrites.
func refPass(dev *pm.Device, region *logging.RegionWriter, opt recovery.Options) recovery.Report {
	rep := recovery.Report{Complete: true}
	apply := func(a mem.Addr, w mem.Word) bool {
		if opt.MaxWrites > 0 && rep.AppliedWrites >= opt.MaxWrites {
			rep.Complete = false
			return false
		}
		dev.PokeWord(a, w)
		rep.AppliedWrites++
		return true
	}
	all := region.ScanAllChecked()
	for t, sr := range all {
		opt.Telemetry.RecoveryScan(t, opt.Now, len(sr.Images), sr.Quarantined)
	}
	refWalk(all, &rep, apply)
	opt.Telemetry.RecoveryApply(opt.Now, rep.RedoApplied, rep.UndoApplied, rep.Discarded)
	return rep
}

func refWalk(all []logging.ScanResult, rep *recovery.Report, apply func(mem.Addr, mem.Word) bool) {
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
	for _, sr := range all {
		var undo []logging.Image
		for _, im := range sr.Images {
			if im.Kind == logging.ImageCommit {
				continue
			}
			if committed[txKey{im.TID, im.TxID}] {
				if im.FlushBit {
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
					rep.Discarded++
				}
				continue
			}
			switch im.Kind {
			case logging.ImageUndo, logging.ImageUndoRedo:
				undo = append(undo, im)
			case logging.ImageRedo:
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

func refRestarting(dev *pm.Device, region *logging.RegionWriter, every int, opt recovery.Options) (recovery.Report, int) {
	opt.MaxWrites = every
	for restarts := 0; ; restarts++ {
		if rep := refPass(dev, region, opt); rep.Complete {
			return rep, restarts
		}
		opt.MaxWrites *= 2
	}
}

// recoverySink keeps the recovery probes of a run.
type recoverySink struct{ events []telemetry.Event }

func (s *recoverySink) Event(e telemetry.Event) {
	if e.Kind == telemetry.KRecoveryScan || e.Kind == telemetry.KRecoveryApply {
		s.events = append(s.events, e)
	}
}

// recoveryResult is what a restarting recovery plus the idempotence pass
// left behind.
type recoveryResult struct {
	first, second recovery.Report
	restarts      int
	words         map[mem.Addr]mem.Word
	events        []telemetry.Event
}

// crashedMachine runs spec to its crash (at the end of the workload when
// the plan never fired mid-run). The caller releases it.
func crashedMachine(t *testing.T, spec harness.Spec) *machine.Machine {
	t.Helper()
	m, _, err := harness.RunMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Crashed() {
		m.InjectCrash(m.Now())
	}
	return m
}

// touched lists every word recovery could write: the written words plus
// every address a record of the crashed log names.
func touched(m *machine.Machine) []mem.Addr {
	addrs := m.WrittenWords()
	for _, sr := range m.Region().ScanAllChecked() {
		for _, im := range sr.Images {
			addrs = append(addrs, im.Addr)
		}
	}
	return addrs
}

func snapshot(dev *pm.Device, addrs []mem.Addr) map[mem.Addr]mem.Word {
	out := make(map[mem.Addr]mem.Word, len(addrs))
	for _, a := range addrs {
		out[a] = dev.PeekWord(a)
	}
	return out
}

func TestParsedLogMatchesFreshScanEveryPass(t *testing.T) {
	faults := []struct {
		name  string
		audit bool
		mod   func(*fault.Plan)
	}{
		{"clean", true, func(*fault.Plan) {}},
		{"flips3", true, func(p *fault.Plan) { p.BitFlips = 3 }},
		{"strict", true, func(p *fault.Plan) { p.StrictBudget, p.FlushBudget, p.TearWords = true, 96, true }},
		{"audit-off", false, func(*fault.Plan) {}},
	}
	for _, design := range harness.ExtendedDesignNames() {
		for _, midRun := range []bool{true, false} {
			for _, every := range []int{0, 1, 7} {
				for _, f := range faults {
					name := fmt.Sprintf("%s/mid=%v/every=%d/%s", design, midRun, every, f.name)
					t.Run(name, func(t *testing.T) {
						plan := fault.Plan{Seed: 5, RecrashEvery: every}
						if midRun {
							plan.Trigger, plan.AtOp = fault.TriggerOp, 700
						}
						f.mod(&plan)
						run := func(parsed bool) recoveryResult {
							p := plan
							spec := harness.Spec{Design: design, Workload: "Sweep40", Cores: 2, Txns: 30, Seed: 3,
								Fault: &p, DisableAudit: !f.audit}
							m := crashedMachine(t, spec)
							defer m.Release()
							if midRun && !m.Crashed() {
								t.Fatal("the mid-run trigger never fired")
							}
							if got := m.CrashLog() != nil; got != (f.audit && plan.BitFlips == 0 && !plan.StrictBudget) {
								t.Fatalf("CrashLog present = %v with audit %v under %s", got, f.audit, plan)
							}
							addrs := touched(m)
							sink := &recoverySink{}
							opt := recovery.Options{Telemetry: telemetry.NewRecorder(sink), Now: m.Now()}
							var r recoveryResult
							if parsed {
								log := m.CrashLog()
								if log == nil {
									log = recovery.Parse(m.Region())
								}
								r.first, r.restarts = recovery.RecoverRestarting(m.Device(), log, every, opt)
								r.second = log.Apply(m.Device(), opt)
							} else {
								r.first, r.restarts = refRestarting(m.Device(), m.Region(), every, opt)
								r.second = refPass(m.Device(), m.Region(), opt)
							}
							r.words = snapshot(m.Device(), addrs)
							r.events = sink.events
							return r
						}
						got, want := run(true), run(false)
						if got.first != want.first || got.restarts != want.restarts || got.second != want.second {
							t.Errorf("reports: parsed %+v (%d restarts) then %+v; fresh scans %+v (%d restarts) then %+v",
								got.first, got.restarts, got.second, want.first, want.restarts, want.second)
						}
						if !reflect.DeepEqual(got.words, want.words) {
							t.Error("data region differs from the fresh-scan recovery")
						}
						if !reflect.DeepEqual(got.events, want.events) {
							t.Errorf("recovery probes differ:\n parsed %v\n fresh  %v", got.events, want.events)
						}
						if len(want.events) == 0 {
							t.Error("no recovery probes recorded")
						}
					})
				}
			}
		}
	}
}

// TestStaleLogReparsed seals a committed redo record whose address is the
// first word of another thread's log area. The pass that applies it
// rewrites that thread's log, so the next pass must see what a fresh
// scan sees, not the Log parsed before the write.
func TestStaleLogReparsed(t *testing.T) {
	for _, every := range []int{0, 1} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			build := func() (*pm.Device, *logging.RegionWriter) {
				dev := pm.New(pm.DefaultConfig())
				region := logging.NewRegionWriter(dev, 2)
				dev.PokeWord(0x200, 9)
				region.AppendAtCrash(1, []logging.Image{
					{Kind: logging.ImageUndo, TID: 1, TxID: 3, Addr: 0x200, Data: 4},
				})
				region.AppendAtCrash(0, []logging.Image{
					{Kind: logging.ImageRedo, TID: 0, TxID: 7, Addr: region.AreaBase(1), Data: 0},
					logging.CommitImage(0, 7),
				})
				return dev, region
			}
			dev, region := build()
			log := recovery.Parse(region)
			first, restarts := recovery.RecoverRestarting(dev, log, every, recovery.Options{})
			second := log.Apply(dev, recovery.Options{})

			refDev, refRegion := build()
			refFirst, refRestarts := refRestarting(refDev, refRegion, every, recovery.Options{})
			refSecond := refPass(refDev, refRegion, recovery.Options{})

			if first != refFirst || restarts != refRestarts || second != refSecond {
				t.Errorf("parsed %+v (%d restarts) then %+v; fresh scans %+v (%d restarts) then %+v",
					first, restarts, second, refFirst, refRestarts, refSecond)
			}
			if second.TotalRecords == 3 {
				t.Fatalf("all 3 crashed records still read back after the redo into thread 1's log area: %+v", second)
			}
			for _, a := range []mem.Addr{0x200, region.AreaBase(1)} {
				if got, want := dev.PeekWord(a), refDev.PeekWord(a); got != want {
					t.Errorf("word %v = %#x, fresh scans left %#x", a, uint64(got), uint64(want))
				}
			}
		})
	}
}

// TestOneParsePerCampaign: a campaign parses its crashed log once, in the
// crash audit when that runs and in the post-crash half otherwise.
func TestOneParsePerCampaign(t *testing.T) {
	cases := []struct {
		name  string
		audit bool
		plan  fault.Plan
	}{
		{"audit", true, fault.Plan{Trigger: fault.TriggerOp, AtOp: 700, RecrashEvery: 3}},
		{"audit-at-end", true, fault.Plan{RecrashEvery: 1}},
		{"audit-off", false, fault.Plan{Trigger: fault.TriggerOp, AtOp: 700, RecrashEvery: 3}},
		{"flips", true, fault.Plan{Trigger: fault.TriggerOp, AtOp: 700, BitFlips: 3, Seed: 9}},
		{"strict", true, fault.Plan{Trigger: fault.TriggerOp, AtOp: 700, StrictBudget: true, FlushBudget: 96}},
	}
	for _, c := range cases {
		for _, design := range []string{"Silo", "MorLog"} {
			t.Run(c.name+"/"+design, func(t *testing.T) {
				spec := harness.Spec{Design: design, Workload: "Sweep40", Cores: 2, Txns: 30, Seed: 3, DisableAudit: !c.audit}
				before := recovery.Parses()
				out := harness.RunCampaign(harness.Campaign{Spec: spec, Plan: c.plan})
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				if out.Report.TotalRecords == 0 {
					t.Fatal("the crash left no log records")
				}
				if n := recovery.Parses() - before; n != 1 {
					t.Errorf("RunCampaign parsed the crashed log %d times, want 1", n)
				}
			})
		}
	}
}
