// Command silo-sim runs one simulation — a (design, workload, cores)
// combination — and prints the full run record: simulated time, committed
// transactions, PM traffic at WPQ and media level, logging behaviour and
// cache statistics.
//
// Usage:
//
//	silo-sim -design Silo -workload TPCC -cores 8 -txns 10000
//	silo-sim -design Silo -workload Btree -telemetry trace.json
//	silo-sim -design Silo -workload Btree -metrics-interval 100000
//
// -telemetry records the run as a Chrome trace-event file: open it at
// ui.perfetto.dev to see one transaction track per core plus WPQ-depth
// and log-buffer-occupancy counter tracks. -metrics-interval folds the
// same probe stream into fixed-width windows and prints the time series.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"silo/internal/buildinfo"
	"silo/internal/core"
	"silo/internal/harness"
	"silo/internal/profiling"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// prof is package-level so fatal can flush profiles before os.Exit.
var prof *profiling.Flags

func main() {
	var (
		design   = flag.String("design", "Silo", "design: "+strings.Join(harness.ExtendedDesignNames(), ", "))
		wl       = flag.String("workload", "Btree", "workload: "+strings.Join(harness.WorkloadNames(), ", ")+", TPCC-Mix, Rtree, Ctrie, TATP, Bank, Sweep<N>")
		cores    = flag.Int("cores", 1, "simulated cores (1 thread per core)")
		txns     = flag.Int("txns", 10000, "total transactions, split across cores")
		seed     = flag.Int64("seed", 42, "simulation seed")
		ops      = flag.Int("ops", 1, "workload operations per transaction")
		logBuf   = flag.Int("logbuf", 0, "Silo log buffer entries per core (0 = 20)")
		logLat   = flag.Int("loglat", 0, "log buffer access latency in cycles (0 = 8)")
		noMerge  = flag.Bool("no-merge", false, "disable Silo log merging (ablation)")
		noIgnore = flag.Bool("no-ignore", false, "disable Silo log ignorance (ablation)")
		telOut   = flag.String("telemetry", "", "write a Chrome trace-event timeline (Perfetto-loadable) to this file")
		interval = flag.Int64("metrics-interval", 0, "fold telemetry into windows of this many cycles and print the series (0 = off)")
	)
	prof = profiling.Register("silo-sim")
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("silo-sim", showVersion)

	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	spec := harness.Spec{
		Design:        *design,
		Workload:      *wl,
		Cores:         *cores,
		Txns:          *txns,
		Seed:          *seed,
		OpsPerTx:      *ops,
		LogBufEntries: *logBuf,
		LogBufLatency: sim.Cycle(*logLat),
		SiloOpts:      core.Options{DisableMerge: *noMerge, DisableIgnore: *noIgnore},
	}

	var (
		ct      *telemetry.ChromeTrace
		traceF  *os.File
		sampler *telemetry.IntervalSampler
		sinks   []telemetry.Sink
	)
	if *telOut != "" {
		f, err := os.Create(*telOut)
		if err != nil {
			fatal(err)
		}
		traceF = f
		ct = telemetry.NewChromeTrace(f)
		sinks = append(sinks, ct)
	}
	if *interval > 0 {
		sampler = telemetry.NewIntervalSampler(sim.Cycle(*interval))
		sinks = append(sinks, sampler)
	}
	if len(sinks) > 0 {
		spec.Telemetry = telemetry.NewRecorder(sinks...)
	}

	m, res, err := harness.RunMachine(spec)
	if err != nil {
		fatal(err)
	}
	defer m.Release()
	if ct != nil {
		if err := ct.Close(); err != nil {
			fatal(err)
		}
		if err := traceF.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "silo-sim: telemetry timeline written to %s (open at ui.perfetto.dev)\n", *telOut)
	}

	fmt.Printf("design=%s workload=%s cores=%d seed=%d\n", *design, *wl, *cores, *seed)
	fmt.Printf("  transactions         %12d\n", res.Transactions)
	fmt.Printf("  simulated cycles     %12d  (%.3f ms at 2 GHz)\n", res.Cycles, float64(res.Cycles)/2e6)
	fmt.Printf("  throughput           %12.1f  tx / M-cycles\n", res.Throughput())
	fmt.Printf("  loads / stores       %12d / %d\n", res.Loads, res.Stores)
	fmt.Printf("  write size per tx    %12.1f  B\n", res.WriteBytesPerTx())
	fmt.Println("PM traffic:")
	fmt.Printf("  WPQ writes / bytes   %12d / %d\n", res.WPQWrites, res.WPQBytes)
	fmt.Printf("  media writes / bytes %12d / %d\n", res.MediaWrites, res.MediaBytes)
	fmt.Printf("  PM reads             %12d\n", res.PMReads)
	fmt.Println("logging:")
	fmt.Printf("  entries created      %12d\n", res.LogEntriesCreated)
	fmt.Printf("  ignored / merged     %12d / %d\n", res.LogEntriesIgnored, res.LogEntriesMerged)
	fmt.Printf("  flushed to log region%12d\n", res.LogEntriesFlushed)
	fmt.Printf("  overflow events      %12d\n", res.LogOverflows)
	fmt.Printf("  flush-bits set       %12d\n", res.FlushBitSets)
	fmt.Println("caches:")
	fmt.Printf("  L1 hit rate          %12.2f%%\n", rate(res.L1Hits, res.L1Misses))
	fmt.Printf("  L2 hit rate          %12.2f%%\n", rate(res.L2Hits, res.L2Misses))
	fmt.Printf("  L3 hit rate          %12.2f%%\n", rate(res.L3Hits, res.L3Misses))
	fmt.Printf("  LLC writebacks       %12d\n", res.Writebacks)

	if spec.Telemetry != nil {
		if snap := m.Metrics(); len(snap) > 0 {
			fmt.Println("telemetry metrics:")
			for _, v := range snap {
				if v.Kind == "histogram" {
					fmt.Printf("  %-24s n=%d p50=%.0f p99=%.0f max=%d mean=%.1f\n",
						v.Name, v.Value, v.P50, v.P99, v.Max, v.Mean)
				} else {
					fmt.Printf("  %-24s %d\n", v.Name, v.Value)
				}
			}
		}
	}
	if sampler != nil {
		fmt.Println("timeline windows:")
		fmt.Print(sampler.Table())
	}
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silo-sim:", err)
	prof.Stop()
	os.Exit(1)
}
