package harness

import (
	"testing"

	"silo/internal/fault"
	"silo/internal/machine"
	"silo/internal/telemetry"
)

// eventLog records the probe-event stream verbatim so two runs can be
// compared event by event, not just by their end-of-run record.
type eventLog struct {
	events []telemetry.Event
}

func (l *eventLog) Event(e telemetry.Event) { l.events = append(l.events, e) }

// A machine built from recycled parts must be observationally identical
// to one built from scratch: same run record (stats.Run is comparable,
// so == is the full-struct check) and same telemetry event stream, for
// every design × workload pair. The recycler is deliberately polluted
// first — its pooled tables carry a different design's and workload's
// leftover capacity — so the test proves reset-in-place, not just reuse
// of compatible state. The polluting run is a full crash campaign that
// crashes mid-run under a fault plan and recovers, so a crashed cache
// hierarchy (sparsely invalidated) and a crashed, recovered media table
// are what go back to the pools. This is the contract that lets fleet
// workers recycle simulation state across arbitrary campaign sequences.
//
// Machines built without a Recycler pool their parts in the package
// pools, shared by every subtest running in parallel here. Two such
// runs back to back, each after a crashed campaign that also released
// into those pools, must match the fresh run too. The fresh run itself
// takes its parts from a new, empty Recycler, so it never sees a reused
// part.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	run := func(t *testing.T, design, wl string, rec *machine.Recycler) ([]telemetry.Event, interface{}) {
		t.Helper()
		log := &eventLog{}
		r, err := Run(Spec{
			Design: design, Workload: wl, Cores: 2, Txns: 24, Seed: 7,
			Recycle:   rec,
			Telemetry: telemetry.NewRecorder(log),
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", design, wl, err)
		}
		return log.events, r
	}

	for _, design := range DesignNames() {
		for _, wl := range Fig4Names() {
			design, wl := design, wl
			t.Run(design+"/"+wl, func(t *testing.T) {
				t.Parallel()
				freshEv, fresh := run(t, design, wl, machine.NewRecycler())

				// Pollute the pools with a crashed campaign of a different
				// design and workload, then build the machine under test from
				// them.
				otherDesign, otherWl := "Silo", "Hash"
				if design == otherDesign {
					otherDesign = "Base"
				}
				if wl == otherWl {
					otherWl = "Array"
				}
				pollute := func(rec *machine.Recycler) {
					t.Helper()
					out := RunCampaign(Campaign{
						Spec: Spec{Design: otherDesign, Workload: otherWl, Cores: 2, Txns: 24, Seed: 7,
							Recycle: rec},
						Plan: fault.Plan{Trigger: fault.TriggerOp, AtOp: 120},
					})
					if out.Failed() || !out.MidRun {
						t.Fatalf("polluting campaign %s/%s: failed=%v err=%v midrun=%v",
							otherDesign, otherWl, out.Failed(), out.Err, out.MidRun)
					}
				}
				same := func(how string, ev []telemetry.Event, r interface{}) {
					t.Helper()
					if fresh != r {
						t.Errorf("run records diverge:\nfresh:   %+v\n%s: %+v", fresh, how, r)
					}
					if len(freshEv) != len(ev) {
						t.Fatalf("event streams diverge: %d fresh events vs %d %s", len(freshEv), len(ev), how)
					}
					for i := range freshEv {
						if freshEv[i] != ev[i] {
							t.Fatalf("event %d diverges:\nfresh:   %v\n%s: %v", i, freshEv[i], how, ev[i])
						}
					}
				}

				rec := machine.NewRecycler()
				pollute(rec)
				ev, r := run(t, design, wl, rec)
				same("recycled", ev, r)

				for i := 0; i < 2; i++ {
					pollute(nil)
					ev, r := run(t, design, wl, nil)
					same("package-pooled", ev, r)
				}
			})
		}
	}
}
