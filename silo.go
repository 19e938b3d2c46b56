// Package silo is a reproduction of "Silo: Speculative Hardware Logging
// for Atomic Durability in Persistent Memory" (Zhang & Hua, HPCA 2023) as
// a pure-Go architectural simulator plus the Silo design itself and the
// four baselines the paper evaluates (Base, FWB, MorLog, LAD).
//
// The package is a thin facade over the internal simulator. A minimal use:
//
//	res, err := silo.Run(silo.Config{
//		Design:       "Silo",
//		Workload:     "Btree",
//		Cores:        8,
//		Transactions: 10000,
//	})
//	fmt.Printf("committed %d txns in %d cycles, %d media writes\n",
//		res.Transactions, res.Cycles, res.MediaWrites)
//
// Crash-recovery experiments go through RunWithCrash, which injects a
// power failure mid-run, performs Silo's battery-backed selective log
// flush (§III-G of the paper), runs recovery, and verifies the recovered
// PM data region against a golden committed-state shadow.
package silo

import (
	"fmt"
	"io"

	"silo/internal/core"
	"silo/internal/energy"
	"silo/internal/fault"
	"silo/internal/harness"
	"silo/internal/mem"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/trace"
)

// Result is the record of one simulation run: simulated cycles, committed
// transactions, PM traffic (WPQ and media levels), logging behaviour and
// cache statistics.
type Result = stats.Run

// Table is a rendered experiment table (fmt.Stringer).
type Table = stats.Table

// SiloOptions are the ablation switches of the Silo design.
type SiloOptions = core.Options

// Config describes one simulation run.
type Config struct {
	// Design is one of Designs(): "Base", "FWB", "MorLog", "LAD", "Silo".
	Design string
	// Workload is one of Workloads(), a TPCC variant ("TPCC",
	// "TPCC-Mix"), or "SweepN" for an N-word write-set workload.
	Workload string
	// Cores is the simulated core count (default 1).
	Cores int
	// Transactions is the total committed-transaction target, split
	// evenly across cores (default 1000).
	Transactions int
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// OpsPerTx repeats the workload operation inside each transaction
	// (default 1) — the Fig. 14 write-set knob.
	OpsPerTx int
	// LogBufferEntries overrides Silo's 20-entry per-core log buffer.
	LogBufferEntries int
	// LogBufferLatency overrides the 8-cycle buffer access latency.
	LogBufferLatency int
	// Silo carries the design's ablation switches.
	Silo SiloOptions
}

func (c Config) spec() harness.Spec {
	return harness.Spec{
		Design:        c.Design,
		Workload:      c.Workload,
		Cores:         c.Cores,
		Txns:          c.Transactions,
		Seed:          c.Seed,
		OpsPerTx:      c.OpsPerTx,
		LogBufEntries: c.LogBufferEntries,
		LogBufLatency: sim.Cycle(c.LogBufferLatency),
		SiloOpts:      c.Silo,
	}
}

// Designs lists the evaluated designs in the paper's order.
func Designs() []string { return harness.DesignNames() }

// ExtendedDesigns additionally includes the §II motivational schemes:
// software write-ahead logging ("SWLog") and the pure hardware undo/redo
// disciplines ("UndoHW", "RedoHW") whose ordering constraints Fig. 3
// illustrates.
func ExtendedDesigns() []string { return harness.ExtendedDesignNames() }

// Workloads lists the seven benchmarks used in Figs. 11–13.
func Workloads() []string { return harness.WorkloadNames() }

// Run executes one simulation to completion.
func Run(cfg Config) (Result, error) {
	return harness.Run(cfg.spec())
}

// RecordTrace runs cfg while recording every memory operation to w in the
// line-oriented trace format (see internal/trace); the trace can later be
// replayed under any design with Replay.
func RecordTrace(cfg Config, w io.Writer) (Result, error) {
	tw := trace.NewWriter(w)
	spec := cfg.spec()
	spec.Trace = tw
	res, err := harness.Run(spec)
	if err != nil {
		return res, err
	}
	return res, tw.Flush()
}

// Replay re-executes a recorded trace under cfg's design. cfg's Workload
// and Seed must match the recording (they rebuild the initial PM state);
// only the design and machine knobs may differ. Replaying under the
// recording design reproduces the original run bit-exactly.
func Replay(cfg Config, r io.Reader) (Result, error) {
	tr, err := trace.Read(r)
	if err != nil {
		return Result{}, err
	}
	return harness.ReplayRun(cfg.spec(), tr)
}

// PMLifetimeYears estimates how long a default 16 GB PCM DIMM (1e8-cycle
// cells, 90 % wear leveling) would last if the measured run's media write
// rate were sustained continuously — the endurance argument behind the
// paper's Fig. 11, as a single number.
func PMLifetimeYears(r Result) float64 {
	return energy.DefaultLifetimeParams().Years(r.MediaBytes, r.Cycles)
}

// CrashReport is the outcome of a crash-injection run.
type CrashReport struct {
	// CommittedBeforeCrash is the number of transactions that committed
	// before the power failure.
	CommittedBeforeCrash int64
	// RecoveredTx is the number of committed transactions recovery found
	// via ID tuples in the log region.
	RecoveredTx int
	// RedoApplied and UndoApplied count the log records replayed/revoked.
	RedoApplied, UndoApplied int
	// WordsChecked is the number of transactional words verified.
	WordsChecked int
	// Mismatches lists verification failures (empty on success).
	Mismatches []string
}

// Ok reports whether atomic durability held.
func (r CrashReport) Ok() bool { return len(r.Mismatches) == 0 }

// RunWithCrash injects a power failure when the machine has executed
// crashAtOp operations, performs the design's battery/ADR crash flush,
// drops the volatile caches, runs log recovery, and verifies every word
// any transaction ever wrote against the committed golden state.
func RunWithCrash(cfg Config, crashAtOp int64) (CrashReport, error) {
	spec := cfg.spec()
	spec.Fault = &fault.Plan{Trigger: fault.TriggerOp, AtOp: crashAtOp}
	m, _, err := harness.RunMachine(spec)
	if err != nil {
		return CrashReport{}, err
	}
	if !m.Crashed() {
		// The workload finished before the crash point: power still goes
		// out eventually. Crash at completion so the verification below
		// always observes a post-power-failure machine.
		m.InjectCrash(m.Now())
	}
	rep := recovery.Recover(m.Device(), m.Region())
	out := CrashReport{
		CommittedBeforeCrash: m.Commits(),
		RecoveredTx:          rep.CommittedTx,
		RedoApplied:          rep.RedoApplied,
		UndoApplied:          rep.UndoApplied,
	}
	for _, addr := range m.WrittenWords() {
		want, ok := m.GoldenCommitted(addr)
		if !ok {
			continue
		}
		out.WordsChecked++
		if got := m.Device().PeekWord(addr); got != want {
			out.Mismatches = append(out.Mismatches,
				fmt.Sprintf("%s: got %#x want %#x", mem.Addr(addr), uint64(got), uint64(want)))
		}
	}
	return out, nil
}
