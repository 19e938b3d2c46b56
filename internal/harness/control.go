package harness

import (
	"fmt"
	"sync/atomic"

	"silo/internal/machine"
	"silo/internal/sim"
	"silo/internal/stats"
)

// ControlledRun is a single-machine run driven step-by-step so an
// external controller — silo-serve's run manager — can inject a crash or
// stop the simulation mid-flight from another goroutine. RunMachine runs
// the engine loop to completion in one call; a ControlledRun owns the
// same Bind/Step loop but polls two atomic requests between scheduling
// decisions:
//
//   - RequestCrash injects a full power failure (machine.InjectCrash:
//     battery-backed flush under the fault plan's energy budget, cache
//     loss, audit conservation checks) at the next scheduling point.
//   - RequestStop unwinds the run without crash semantics, like the
//     sim-cycle watchdog.
//
// Execute runs on the caller's goroutine; only the two request methods
// and Machine's read-only accessors are safe from other goroutines while
// it runs. A run with neither request ever made executes the exact
// scheduling sequence of RunMachine.
type ControlledRun struct {
	spec    Spec
	mach    *machine.Machine
	eng     *sim.Engine
	streams []sim.OpStream

	crashReq atomic.Bool
	stopReq  atomic.Bool

	// Tick, when non-nil, is called with the simulated clock every
	// TickOps scheduling steps — silo-serve uses it to pace the
	// simulation near a wall-clock rate so the dashboard's charts move
	// at human speed. Tick runs on the Execute goroutine; it must not
	// touch simulated state.
	Tick    func(now sim.Cycle)
	TickOps int
}

// NewControlledRun builds the machine and workload streams for spec
// through the same path as RunMachine, but leaves the engine unstarted.
func NewControlledRun(spec Spec) (*ControlledRun, error) {
	m, streams, err := buildStreams(spec)
	if err != nil {
		return nil, err
	}
	return &ControlledRun{spec: spec, mach: m, eng: m.Engine(spec.Seed), streams: streams, TickOps: 64}, nil
}

// Machine exposes the run's machine (telemetry recorder, device, region —
// for recovery replay after a crash).
func (c *ControlledRun) Machine() *machine.Machine { return c.mach }

// RequestCrash asks the run to inject a power failure at the next
// scheduling point. Safe from any goroutine; idempotent.
func (c *ControlledRun) RequestCrash() { c.crashReq.Store(true) }

// RequestStop asks the run to unwind without crash semantics. Safe from
// any goroutine; idempotent.
func (c *ControlledRun) RequestStop() { c.stopReq.Store(true) }

// Execute drives the run to completion (or crash/stop) and returns the
// run record. An audit-violation panic is recovered into an error so a
// server hosting many runs survives a violating one.
func (c *ControlledRun) Execute() (run stats.Run, err error) {
	eng := c.eng
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: run aborted: %v", r)
		}
	}()
	eng.Bind(c.streams)
	tickOps := c.TickOps
	if tickOps < 1 {
		tickOps = 64
	}
	for steps := 0; ; steps++ {
		if steps%tickOps == 0 {
			if c.crashReq.Swap(false) && !eng.Crashed() {
				c.mach.InjectCrash(eng.Now())
			}
			if c.stopReq.Load() && !eng.Crashed() {
				eng.Crash()
			}
			if c.Tick != nil {
				c.Tick(eng.Now())
			}
		}
		if !eng.Step() {
			break
		}
	}
	return c.mach.CollectStats(c.spec.Design, c.spec.Workload), nil
}
