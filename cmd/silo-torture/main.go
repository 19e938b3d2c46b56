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
// Repro mode (replay one schedule, e.g. from a failure's repro line):
//
//	silo-torture -designs Silo -workloads Hash -cores 2 -txns 48 \
//	    -seed 12345 -plan "trigger=commit,at=3,budget=64,tear=1,recrash=5"
//
// Exit codes: 0 all campaigns verified clean; 1 atomic durability
// violated (or an audit invariant fired); 2 configuration error;
// 3 infra-only failures (watchdog kills, host flakes — no durability
// verdict); 130 interrupted before completion.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"silo/internal/buildinfo"
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
	// exit seals the checkpoint sink and flushes the profiles before
	// terminating: os.Exit skips deferred functions, so every exit path
	// below must go through it. Sealing even on a drained interrupt
	// means the store is always published valid; only a hard kill
	// leaves the (recoverable) temp segment.
	var sink *harness.CheckpointSink
	exit := func(code int) {
		if sink != nil {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "silo-torture: sealing checkpoint:", err)
				if code == 0 {
					code = 2
				}
			}
			sink = nil
		}
		prof.Stop()
		os.Exit(code)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}

	if len(splitCSV(*designs)) == 0 {
		*designs = strings.Join(harness.DesignNames(), ",")
	}
	if len(splitCSV(*workloads)) == 0 {
		*workloads = "Array,Hash,TPCC"
	}
	cfg := harness.TortureConfig{
		Seed:          *seed,
		Campaigns:     *campaigns,
		Offset:        *offset,
		Designs:       splitCSV(*designs),
		Workloads:     splitCSV(*workloads),
		Cores:         *cores,
		Txns:          *txns,
		AllowStrict:   *strict,
		AllowBitFlips: *flips,
		Shrink:        *shrink,
		Parallel:      *parallel,
		DisableAudit:  !*audit,
		TraceDir:      *traceDir,
	}
	if *wall == 0 {
		cfg.WallBudget = -1
	} else {
		cfg.WallBudget = *wall
	}
	if *maxCycles == 0 {
		cfg.MaxCycles = -1
	} else {
		cfg.MaxCycles = sim.Cycle(*maxCycles)
	}
	if *retries >= 0 {
		cfg.Retries = *retries
	}
	if cfg.Retries == 0 {
		cfg.Retries = -1 // harness: <0 means no retries, 0 means default
	}

	if *planStr != "" {
		exit(reproMode(cfg, *planStr, *seed))
	}

	if *resume != "" {
		// Must happen before the sink opens: the sink truncates the
		// temp segment the resume records may live in.
		recs, err := harness.LoadRecords(*resume)
		if err != nil {
			fatal(fmt.Errorf("reading %s: %w", *resume, err))
		}
		cfg.Resume = recs
		fmt.Fprintf(os.Stderr, "silo-torture: resuming, %d campaigns already done\n", len(recs))
	}
	if *out != "" {
		s, err := harness.OpenCheckpointSink(*out)
		if err != nil {
			fatal(err)
		}
		sink = s
		// Re-emit resumed records so the sealed store is complete.
		if err := sink.Seed(cfg.Resume); err != nil {
			fatal(err)
		}
		cfg.Sink = sink
		cfg.OnSinkError = func(err error) {
			fmt.Fprintln(os.Stderr, "silo-torture: writing record:", err)
		}
	}

	// First SIGINT drains the fleet (in-flight campaigns finish, queued
	// ones are skipped); a second one exits immediately.
	stop := make(chan struct{})
	cfg.Stop = stop
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "silo-torture: draining (campaigns in flight will finish; interrupt again to abort)")
		close(stop)
		<-sigs
		fmt.Fprintln(os.Stderr, "silo-torture: aborted")
		os.Exit(130)
	}()

	res, err := harness.Torture(cfg)
	if err != nil {
		fatal(err)
	}
	if sink != nil {
		// Failing campaigns re-ran with telemetry (when -telemetry-dir
		// is set); embed those traces into the store, compressed, next
		// to their records.
		for _, f := range res.Failures {
			if f.TracePath == "" {
				continue
			}
			blob, err := os.ReadFile(f.TracePath)
			if err == nil {
				err = sink.AttachTrace(f.Outcome.Campaign.Index, blob)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "silo-torture: embedding trace:", err)
			}
		}
	}
	fmt.Print(res.Summary())
	switch {
	case !res.Ok():
		exit(1)
	case res.Interrupted:
		resumeCmd := resumeCommand(*out)
		fmt.Fprintf(os.Stderr, "silo-torture: interrupted; resume with:\n  %s\n", resumeCmd)
		exit(130)
	case len(res.Infra) > 0:
		exit(3)
	}
	exit(0)
}

// resumeCommand renders the exact command that continues an interrupted
// sweep: the original arguments plus -resume pointing at the stream.
func resumeCommand(out string) string {
	args := make([]string, 0, len(os.Args)+2)
	args = append(args, os.Args...)
	if out == "" {
		return strings.Join(args, " ") + "   # re-run (no -out stream was kept)"
	}
	has := false
	for _, a := range args[1:] {
		if a == "-resume" || strings.HasPrefix(a, "-resume=") {
			has = true
		}
	}
	if !has {
		args = append(args, "-resume", out)
	}
	return strings.Join(args, " ")
}

func reproMode(cfg harness.TortureConfig, planStr string, seed int64) int {
	plan, err := fault.ParsePlan(planStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silo-torture:", err)
		return 2
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
	out := harness.RunCampaignContained(c)
	fmt.Printf("campaign: %s on %s, plan %s\n", c.Spec.Design, c.Spec.Workload, plan.String())
	fmt.Printf("  crashed mid-run: %v, committed: %d\n", out.MidRun, out.Commits)
	fmt.Printf("  recovery: %d tx, %d redo, %d undo, %d quarantined, %d torn, %d dropped, %d re-crashes\n",
		out.Report.CommittedTx, out.Report.RedoApplied, out.Report.UndoApplied,
		out.Report.Quarantined, out.Torn, out.Dropped, out.Restarts)
	if out.Err != nil {
		fmt.Fprintln(os.Stderr, "silo-torture:", out.Err)
		if out.Invariant != "" {
			fmt.Fprintf(os.Stderr, "  invariant: %s\n", out.Invariant)
			for _, e := range out.Trail {
				fmt.Fprintf(os.Stderr, "  trail: %s\n", e)
			}
		}
		if harness.IsInfra(out.Err) {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silo-torture:", err)
	prof.Stop()
	os.Exit(2)
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
