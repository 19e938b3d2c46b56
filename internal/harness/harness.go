// Package harness builds simulated systems, runs (design × workload ×
// cores) experiments, and regenerates every table and figure of the
// paper's evaluation section as text tables.
package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"silo/internal/baseline"
	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/fault"
	"silo/internal/logging"
	"silo/internal/machine"
	"silo/internal/pm"
	"silo/internal/pmheap"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/telemetry"
	"silo/internal/tpcc"
	"silo/internal/trace"
	"silo/internal/workload"
)

// DesignNames lists the evaluated designs in the paper's order (§VI-A).
func DesignNames() []string { return []string{"Base", "FWB", "MorLog", "LAD", "Silo"} }

// ExtendedDesignNames adds the motivational schemes of §II (software
// write-ahead logging and the pure undo/redo hardware disciplines of
// Fig. 3) to the evaluated set; they power the ordering-constraint
// experiment and widen the recovery test matrix.
func ExtendedDesignNames() []string {
	return []string{"SWLog", "eADR-SW", "UndoHW", "RedoHW", "Base", "FWB", "MorLog", "LAD", "Silo"}
}

// WorkloadNames lists the seven benchmarks of Figs. 11–13.
func WorkloadNames() []string {
	return []string{"Array", "Btree", "Hash", "Queue", "RBtree", "TPCC", "YCSB"}
}

// Fig4Names lists the eleven write-size workloads of Fig. 4.
func Fig4Names() []string {
	return []string{"Array", "Btree", "Hash", "Queue", "RBtree", "TPCC", "YCSB",
		"Rtree", "Ctrie", "TATP", "Bank"}
}

// Spec describes one simulation run.
type Spec struct {
	Design   string
	Workload string
	Cores    int
	Txns     int // total transactions, split across cores
	Seed     int64

	OpsPerTx      int          // workload operations per transaction (0 → 1)
	LogBufEntries int          // Silo log buffer capacity (0 → 20)
	LogBufLatency sim.Cycle    // log buffer access latency (0 → 8)
	SiloOpts      core.Options // ablation switches for Silo
	PMMod         func(*pm.Config)
	CacheMod      func(*cache.HierarchyConfig) // cache-geometry knob (Table II explorer)

	// Recycle, when non-nil, sources the machine's heavy structures from
	// the pool and returns them on Release — the fleet's cross-campaign
	// reset-in-place reuse (see machine.Recycler).
	Recycle *machine.Recycler

	// Fault, when non-nil, is the full crash schedule (trigger, flush
	// energy budget, media faults); see internal/fault. A crash at op n
	// is &fault.Plan{Trigger: fault.TriggerOp, AtOp: n}.
	Fault *fault.Plan

	// Trace, when non-nil, records every operation of the run.
	Trace *trace.Writer

	// MaxCycles arms the engine's sim-cycle watchdog (0 disables): a run
	// whose clock reaches the budget is crashed and unwound.
	MaxCycles sim.Cycle

	// DisableAudit turns off the runtime invariant layer (benchmarks).
	DisableAudit bool

	// Telemetry, when non-nil, receives typed probe events from every
	// machine layer (see internal/telemetry): attach a ChromeTrace sink
	// for a Perfetto timeline or an IntervalSampler for windowed metrics.
	Telemetry *telemetry.Recorder
}

// DesignFactory resolves a design name to its factory.
func DesignFactory(name string, opts core.Options) (logging.Factory, error) {
	switch name {
	case "Base":
		return baseline.NewBase, nil
	case "FWB":
		return baseline.NewFWB, nil
	case "MorLog":
		return baseline.NewMorLog, nil
	case "LAD":
		return baseline.NewLAD, nil
	case "SWLog":
		return baseline.NewSWLog, nil
	case "eADR-SW":
		return baseline.NewEADRSW, nil
	case "UndoHW":
		return baseline.NewUndoHW, nil
	case "RedoHW":
		return baseline.NewRedoHW, nil
	case "Silo":
		return core.Factory(opts), nil
	}
	return nil, fmt.Errorf("harness: unknown design %q (have %s)", name, strings.Join(DesignNames(), ", "))
}

// GetWorkload resolves a workload name, including the TPCC variants and
// SweepN write-set workloads.
func GetWorkload(name string) (workload.Workload, error) {
	switch {
	case name == "TPCC":
		return tpcc.New(false), nil
	case name == "TPCC-Mix":
		return tpcc.New(true), nil
	case strings.HasPrefix(name, "Sweep"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "Sweep"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("harness: bad sweep workload %q", name)
		}
		return workload.NewSweep(n, 4*n), nil
	}
	if w := workload.Registry(name); w != nil {
		return w, nil
	}
	return nil, fmt.Errorf("harness: unknown workload %q", name)
}

// Build constructs the machine and workload for a spec and runs Setup.
// The engine is created but not started.
func Build(spec Spec) (*machine.Machine, workload.Workload, error) {
	factory, err := DesignFactory(spec.Design, spec.SiloOpts)
	if err != nil {
		return nil, nil, err
	}
	wl, err := GetWorkload(spec.Workload)
	if err != nil {
		return nil, nil, err
	}
	if spec.Cores < 1 {
		spec.Cores = 1
	}
	pmCfg := pm.DefaultConfig()
	if spec.PMMod != nil {
		spec.PMMod(&pmCfg)
	}
	cacheCfg := cache.DefaultHierarchyConfig()
	if spec.CacheMod != nil {
		spec.CacheMod(&cacheCfg)
	}
	m := machine.New(machine.Config{
		Cores:  spec.Cores,
		PM:     pmCfg,
		Cache:  cacheCfg,
		Design: factory,
		LogBuf: spec.LogBufEntries,
		LogLat: spec.LogBufLatency,
		Fault:  spec.Fault,
		Trace:  spec.Trace,

		MaxCycles:    spec.MaxCycles,
		DisableAudit: spec.DisableAudit,
		Telemetry:    spec.Telemetry,
		Recycle:      spec.Recycle,
	})
	if spec.OpsPerTx > 1 {
		wl.SetOpsPerTx(spec.OpsPerTx)
	}
	heap := pmheap.New(pmCfg.Layout, spec.Cores)
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5170))
	wl.Setup(workload.Direct(m.Device()), heap, spec.Cores, rng)
	return m, wl, nil
}

// Run executes the spec to completion and returns the run record.
func Run(spec Spec) (stats.Run, error) {
	m, r, err := RunMachine(spec)
	if m != nil {
		m.Release() // the machine is private to this call; recycle its pools
	}
	return r, err
}

// RunMachine executes the spec and also returns the machine, for callers
// that inspect design internals (Fig. 13) or verify crash recovery.
func RunMachine(spec Spec) (*machine.Machine, stats.Run, error) {
	m, streams, err := buildStreams(spec)
	if err != nil {
		return nil, stats.Run{}, err
	}
	m.Engine(spec.Seed).RunStreams(streams)
	return m, m.CollectStats(spec.Design, spec.Workload), nil
}

// buildStreams builds spec's machine and one workload stream per core,
// spec.Txns (default 1000) split evenly across the cores — the one
// spec-to-streams path of RunMachine and NewControlledRun.
func buildStreams(spec Spec) (*machine.Machine, []sim.OpStream, error) {
	m, wl, err := Build(spec)
	if err != nil {
		return nil, nil, err
	}
	txns := spec.Txns
	if txns <= 0 {
		txns = 1000
	}
	cores := max(spec.Cores, 1)
	per := max(txns/cores, 1)
	streams := make([]sim.OpStream, cores)
	for c := range streams {
		streams[c] = wl.Stream(c, per, sim.CoreRand(spec.Seed, c))
	}
	return m, streams, nil
}

// ReplayRun re-executes a recorded trace under spec's design. The spec's
// workload and seed are used only for Setup, rebuilding the initial PM
// state the trace was recorded against; the operation streams come from
// the trace, pinning the instruction sequences across designs.
func ReplayRun(spec Spec, tr *trace.Trace) (stats.Run, error) {
	if spec.Cores < tr.Cores() {
		spec.Cores = tr.Cores()
	}
	m, _, err := Build(spec)
	if err != nil {
		return stats.Run{}, err
	}
	eng := m.Engine(spec.Seed)
	streams := make([]sim.OpStream, spec.Cores)
	for c := 0; c < spec.Cores; c++ {
		streams[c] = tr.Stream(c)
	}
	eng.RunStreams(streams)
	return m.CollectStats(spec.Design, spec.Workload+"(replay)"), nil
}
