// Command silo-torture runs crash-storm fault-injection campaigns:
// every campaign picks a (design, workload) pair and a seeded crash
// schedule — an op-, cycle-, commit-window- or overflow-triggered power
// failure, a bounded crash-flush energy budget that can tear the last
// record at word granularity, and optional mid-recovery re-crashes —
// then recovers and verifies every transactional word against the
// machine's golden committed shadow. The runtime invariant auditor is
// on inside every campaign unless -audit=false.
//
// Sweep mode (resumable fleet):
//
//	silo-torture -seed 1 -campaigns 5000 -out sweep.srs
//	# ... SIGINT drains the fleet and prints the resume command ...
//	silo-torture -seed 1 -campaigns 5000 -out sweep.srs -resume sweep.srs
//
// The checkpoint is always the mmap-scannable SRS1 result store
// (internal/resultstore; query it with silo-report -torture, export it
// as JSON lines with silo-report -jsonl). It streams into <out>.tmp
// and is sealed + atomically renamed on exit; a killed fleet leaves
// the temp segment, and -resume <out> recovers its sealed prefix
// byte-exactly. A JSONL checkpoint from an older sweep is refused with
// a pointer to silo-report -convert. With -telemetry-dir set, failing
// campaigns' Chrome traces are also embedded into the store,
// compressed, next to their records.
//
// Repro mode (replay one schedule, e.g. from a failure's repro line;
// a silo-cluster line, workload ClusterKV, replays a cluster campaign):
//
//	silo-torture -designs Silo -workloads Hash -cores 2 -txns 48 \
//	    -seed 12345 -plan "trigger=commit,at=3,budget=64,tear=1,recrash=5"
//
// Sweeps run through harness.Sweep, the session silo-cluster and
// silo-explore share. Exit codes: 0 all campaigns verified clean;
// 1 atomic durability violated (or an audit invariant fired);
// 2 configuration error, or the store failed to seal after a clean
// sweep; 3 infra-only failures (watchdog kills, host flakes — no
// durability verdict); 130 interrupted before completion (the first
// SIGINT drains, seals the store and prints the resume command; a
// second aborts).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"silo/internal/buildinfo"
	"silo/internal/cluster"
	"silo/internal/fault"
	"silo/internal/harness"
	"silo/internal/profiling"
	"silo/internal/sim"
)

// prof is package-level so fatal can flush profiles before os.Exit.
var prof *profiling.Flags

func main() {
	var (
		seed      = flag.Int64("seed", 1, "sweep seed: campaign schedules derive from it deterministically")
		campaigns = flag.Int("campaigns", 200, "number of campaigns")
		offset    = flag.Int("offset", 0, "first campaign index (repro campaign k alone: -offset k -campaigns 1)")
		designs   = flag.String("designs", strings.Join(harness.DesignNames(), ","), "comma-separated designs")
		workloads = flag.String("workloads", "Array,Hash,TPCC", "comma-separated workloads")
		cores     = flag.Int("cores", 2, "simulated cores per campaign")
		txns      = flag.Int("txns", 48, "transaction target per campaign")
		strict    = flag.Bool("strict", false, "admit beyond-spec battery faults (commit tuples and undo logs can be lost; mismatches expected)")
		flips     = flag.Bool("flips", false, "admit log media bit flips (detected by CRCs, but data loss possible)")
		shrink    = flag.Bool("shrink", true, "shrink failing campaigns to minimal reproducers")
		planStr   = flag.String("plan", "", "replay exactly this crash schedule instead of deriving one per campaign")

		audit     = flag.Bool("audit", true, "runtime invariant auditor inside every campaign")
		out       = flag.String("out", "", "record every completed campaign to this SRS1 result store")
		resume    = flag.String("resume", "", "checkpoint store from a previous run; completed campaign indices are not re-executed")
		wall      = flag.Duration("wall", 2*time.Minute, "per-campaign wall-clock watchdog (0 disables)")
		maxCycles = flag.Int64("maxcycles", 1<<31, "per-campaign sim-cycle watchdog (0 disables)")
		retries   = flag.Int("retries", 2, "retries for infra failures (watchdog kills, host flakes)")
		parallel  = flag.Int("parallel", 0, "concurrent campaigns (0 = GOMAXPROCS)")

		traceDir  = flag.String("telemetry-dir", "", "re-run failing campaigns with telemetry and write DIR/campaign-<idx>.trace.json (Perfetto-loadable)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live fleet profiling")
	)
	prof = profiling.Register("silo-torture")
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("silo-torture", showVersion)

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "silo-torture: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "silo-torture: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}

	if len(harness.SplitList(*designs)) == 0 {
		*designs = strings.Join(harness.DesignNames(), ",")
	}
	if len(harness.SplitList(*workloads)) == 0 {
		*workloads = "Array,Hash,TPCC"
	}
	cfg := harness.TortureConfig{
		Seed:          *seed,
		Campaigns:     *campaigns,
		Offset:        *offset,
		Designs:       harness.SplitList(*designs),
		Workloads:     harness.SplitList(*workloads),
		Cores:         *cores,
		Txns:          *txns,
		AllowStrict:   *strict,
		AllowBitFlips: *flips,
		Shrink:        *shrink,
		Parallel:      *parallel,
		DisableAudit:  !*audit,
		TraceDir:      *traceDir,
		WallBudget:    harness.FlagOff(*wall),
		MaxCycles:     sim.Cycle(harness.FlagOff(*maxCycles)),
		Retries:       harness.FlagOff(*retries),
	}
	code := 0
	if *planStr != "" {
		code = reproMode(cfg, *planStr, *seed)
	} else {
		s := harness.StoreSweep("silo-torture", cfg, *out, *resume)
		s.Config.Stop = s.DrainOnInterrupt()
		_, code = s.Run(os.Stdout, os.Stderr)
	}
	prof.Stop()
	os.Exit(code)
}

func reproMode(cfg harness.TortureConfig, planStr string, seed int64) int {
	out, err := replay(cfg, planStr, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silo-torture:", err)
		return 2
	}
	fmt.Printf("campaign: %s on %s, plan %s\n", out.Design, out.Workload, out.Plan)
	fmt.Printf("  crashed mid-run: %v, committed: %d\n", out.MidRun, out.Commits)
	fmt.Printf("  recovery: %d tx, %d redo, %d undo, %d quarantined, %d torn, %d dropped, %d re-crashes\n",
		out.Report.CommittedTx, out.Report.RedoApplied, out.Report.UndoApplied,
		out.Report.Quarantined, out.Torn, out.Dropped, out.Restarts)
	if out.Err != "" {
		fmt.Fprintln(os.Stderr, "silo-torture:", out.Err)
		if out.Invariant != "" {
			fmt.Fprintf(os.Stderr, "  invariant: %s\n", out.Invariant)
			for _, e := range out.Trail {
				fmt.Fprintf(os.Stderr, "  trail: %s\n", e)
			}
		}
		if out.Infra {
			return 3
		}
		return 1
	}
	if len(out.Mismatches) == 0 {
		fmt.Println("  atomic durability HELD")
		return 0
	}
	fmt.Printf("  atomic durability VIOLATED: %d mismatches\n", len(out.Mismatches))
	for i, m := range out.Mismatches {
		if i == 10 {
			fmt.Println("    ...")
			break
		}
		fmt.Println("   ", m)
	}
	return 1
}

// replay rebuilds the campaign a repro line names (the first design and
// workload, the machine shape, the seed and the plan) and runs it as a
// one-campaign sweep, so it is contained as a sweep campaign is (panics,
// watchdogs, infra retries). A ClusterKV workload runs through the
// cluster's runner. It returns the campaign's record.
func replay(cfg harness.TortureConfig, planStr string, seed int64) (harness.Record, error) {
	plan, err := fault.ParsePlan(planStr)
	if err != nil {
		return harness.Record{}, err
	}
	if plan.Seed == 0 {
		plan.Seed = seed
	}
	c := harness.Campaign{Spec: harness.Spec{
		Design:       cfg.Designs[0],
		Workload:     cfg.Workloads[0],
		Cores:        cfg.Cores,
		Txns:         cfg.Txns,
		Seed:         seed,
		DisableAudit: cfg.DisableAudit,
	}, Plan: plan}
	cfg.Campaigns, cfg.Offset, cfg.Shrink, cfg.TraceDir = 1, 0, false, ""
	cfg.Make = func(int) harness.Campaign { return c }
	if strings.HasPrefix(c.Spec.Workload, "ClusterKV") {
		cfg.Run = cluster.RunCampaign
	}
	var rec lastRecord
	cfg.Sink = &rec
	_, err = harness.Torture(cfg)
	return rec.Record, err
}

// lastRecord is a RecordSink that keeps the last record written.
type lastRecord struct{ harness.Record }

func (*lastRecord) Encode(harness.Record) ([]byte, error) { return nil, nil }
func (l *lastRecord) Write(r harness.Record, _ []byte) error {
	l.Record = r
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silo-torture:", err)
	prof.Stop()
	os.Exit(2)
}
