// Command silo-cluster runs the simulated sharded PM key-value service:
// N single-core Silo machines behind a consistent-hash router, a
// deterministic network cost model (hop latency, timeouts, bounded
// retries with seeded backoff, per-node queues with overload shedding),
// Zipfian multi-tenant load, and cluster-scope fault injection — node
// power failures with bounded-energy log flushes, recovery under load
// while the router fails over, and crash storms. Every run verifies the
// cluster-level golden shadow (acked writes survive, uncommitted writes
// roll back) plus each node's machine-level golden shadow.
//
// Scenario mode (one explicit run, availability report):
//
//	silo-cluster -scenario steady
//	silo-cluster -scenario rolling -nodes 4 -requests 4000
//	silo-cluster -scenario diurnal -telemetry cluster.trace.json
//
// Sweep mode (resumable fleet; default):
//
//	silo-cluster -seed 1 -campaigns 1000 -out cluster.srs
//	# ... SIGINT drains the fleet and prints the resume command ...
//	silo-cluster -seed 1 -campaigns 1000 -out cluster.srs -resume cluster.srs
//
// The checkpoint is an SRS1 result store, the same as silo-torture's:
// summarize it with silo-report -torture, export it as JSON lines with
// silo-report -jsonl. A sweep runs through harness.Sweep, the session
// silo-torture and silo-explore share, so its SIGINT handling and exit
// codes are theirs.
//
// Exit codes: 0 clean; 1 durability violated (shadow divergence);
// 2 configuration error, or the store failed to seal after a clean
// sweep; 3 infra-only failures; 130 interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"silo/internal/buildinfo"
	"silo/internal/cluster"
	"silo/internal/fault"
	"silo/internal/harness"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/telemetry"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "run one explicit scenario instead of a sweep: steady, rolling, storm, diurnal")
		seed     = flag.Int64("seed", 1, "deterministic seed for load, ring, and crash schedules")
		design   = flag.String("design", "Silo", "logging design on every node")
		nodes    = flag.Int("nodes", 4, "shard servers")
		requests = flag.Int("requests", 2000, "client requests per run")
		tenants  = flag.Int("tenants", 3, "independent client populations")
		readPct  = flag.Int("reads", 60, "base read percentage of the load mix")
		replicas = flag.Int("replicas", 0, "replica-set size R (0 = auto: 1 in scenario mode, seed-derived 1-3 per sweep campaign)")
		replMode = flag.String("replication", "sync", "replication mode for R>1: sync (ack after all live replicas) or async (bounded lag, losses counted)")
		planStr  = flag.String("plan", "", "explicit cluster fault schedule (scenario mode), e.g. \"storm=1@200000;node=budget=256,tear=1\"")
		telOut   = flag.String("telemetry", "", "write a Perfetto-loadable trace of the run to this file (scenario mode)")

		campaigns = flag.Int("campaigns", 200, "sweep size (sweep mode)")
		offset    = flag.Int("offset", 0, "first campaign index (repro campaign k alone: -offset k -campaigns 1)")
		designs   = flag.String("designs", strings.Join(harness.DesignNames(), ","), "comma-separated designs for the sweep")
		shrink    = flag.Bool("shrink", true, "shrink failing campaigns to minimal reproducers")
		audit     = flag.Bool("audit", true, "runtime invariant auditor inside every node")
		out       = flag.String("out", "", "record every completed campaign to this SRS1 result store")
		resume    = flag.String("resume", "", "checkpoint store from a previous run; completed campaigns are not re-executed")
		wall      = flag.Duration("wall", 2*time.Minute, "per-campaign wall-clock watchdog (0 disables)")
		retries   = flag.Int("retries", 2, "retries for infra failures")
		parallel  = flag.Int("parallel", 0, "concurrent campaigns (0 = GOMAXPROCS)")
	)
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("silo-cluster", showVersion)

	// Validate the replication shape before any work: a replica set
	// larger than the cluster or an unknown mode is a config error, not
	// something to discover one campaign deep into a sweep.
	mode, err := validateReplication(*nodes, *replicas, *replMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silo-cluster:", err)
		os.Exit(2)
	}

	if *scenario != "" {
		os.Exit(scenarioMode(*scenario, *seed, *design, *nodes, *requests, *tenants, *readPct, *replicas, mode, *planStr, *telOut))
	}
	s := harness.StoreSweep("silo-cluster", cluster.SweepConfig(harness.TortureConfig{
		Seed:         *seed,
		Campaigns:    *campaigns,
		Offset:       *offset,
		Designs:      harness.SplitList(*designs),
		Cores:        *nodes,
		Txns:         *requests,
		Shrink:       *shrink,
		DisableAudit: !*audit,
		Parallel:     *parallel,
		WallBudget:   harness.FlagOff(*wall),
		Retries:      harness.FlagOff(*retries),
	}, *replicas, mode), *out, *resume)
	s.Config.Stop = s.DrainOnInterrupt()
	_, code := s.Run(os.Stdout, os.Stderr)
	os.Exit(code)
}

// validateReplication checks the replication flags against the cluster
// shape. replicas 0 is "auto" and always valid; nodes <= 0 falls back
// to the cluster default before the bound check.
func validateReplication(nodes, replicas int, mode string) (cluster.ReplicationMode, error) {
	m, err := cluster.ParseReplicationMode(mode)
	if err != nil {
		return m, err
	}
	if replicas < 0 {
		return m, fmt.Errorf("-replicas %d: must be >= 0 (0 = auto)", replicas)
	}
	if nodes <= 0 {
		nodes = 4 // cluster.Config default
	}
	if replicas > nodes {
		return m, fmt.Errorf("-replicas %d exceeds the %d-node cluster: a replica set cannot be larger than the ring", replicas, nodes)
	}
	return m, nil
}

// scenarioPlan derives each named scenario's crash schedule from the
// cluster shape: rolling crashes every node once, staggered across the
// load; storm takes two nodes down nearly together then re-crashes the
// first; steady and diurnal are fault-free unless -plan adds one.
func scenarioPlan(name string, cfg *cluster.Config) error {
	horizon := cfg.LoadHorizon()
	tmpl := fault.Plan{FlushBudget: 256, TearWords: true, RecrashEvery: 64, Seed: cfg.Seed}
	switch name {
	case "steady":
	case "rolling":
		var crashes []fault.NodeCrash
		for n := 0; n < cfg.Nodes; n++ {
			at := horizon * sim.Cycle(n+1) / sim.Cycle(cfg.Nodes+1)
			crashes = append(crashes, fault.NodeCrash{Node: n, At: at})
		}
		cfg.Plan = &fault.ClusterPlan{Crashes: crashes, Node: tmpl}
	case "storm":
		cfg.Plan = &fault.ClusterPlan{
			Crashes: []fault.NodeCrash{
				{Node: 0, At: horizon / 3},
				{Node: 1 % cfg.Nodes, At: horizon/3 + horizon/20},
				{Node: 0, At: horizon * 3 / 4},
			},
			Node: tmpl,
		}
	case "diurnal":
		cfg.DiurnalAmp = 0.6
		cfg.DiurnalPeriod = cfg.LoadHorizon() / 2
		// One crash at the first load peak, where failover hurts most.
		cfg.Plan = &fault.ClusterPlan{
			Crashes: []fault.NodeCrash{{Node: 0, At: cfg.LoadHorizon() / 4}},
			Node:    tmpl,
		}
	default:
		return fmt.Errorf("unknown scenario %q (steady, rolling, storm, diurnal)", name)
	}
	return nil
}

func scenarioMode(name string, seed int64, design string, nodes, requests, tenants, readPct, replicas int, mode cluster.ReplicationMode, planStr, telOut string) int {
	cfg := cluster.Config{
		Seed: seed, Design: design, Nodes: nodes, Requests: requests,
		Tenants: tenants, ReadPercent: readPct,
		Replicas: replicas, Replication: mode,
	}
	if err := scenarioPlan(name, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "silo-cluster:", err)
		return 2
	}
	if planStr != "" {
		plan, err := fault.ParseClusterPlan(planStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silo-cluster:", err)
			return 2
		}
		cfg.Plan = &plan
	}
	var (
		ct     *telemetry.ChromeTrace
		traceF *os.File
	)
	if telOut != "" {
		f, err := os.Create(telOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silo-cluster:", err)
			return 2
		}
		traceF = f
		ct = telemetry.NewChromeTrace(f)
		cfg.Telemetry = telemetry.NewRecorder(ct)
	}

	res := cluster.Run(cfg)
	if ct != nil {
		if err := ct.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "silo-cluster:", err)
		}
		if err := traceF.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "silo-cluster:", err)
		}
		fmt.Fprintf(os.Stderr, "silo-cluster: timeline written to %s (open at ui.perfetto.dev)\n", telOut)
	}
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, "silo-cluster:", res.Err)
		if res.Infra {
			return 3
		}
		return 1
	}
	printReport(name, res)
	if len(res.Divergences) > 0 {
		return 1
	}
	return 0
}

// us renders simulated cycles as microseconds at the 2 GHz model clock.
func us(c sim.Cycle) float64 { return float64(c) / 2000 }

func printReport(name string, res cluster.Result) {
	fmt.Printf("scenario=%s design=%s nodes=%d\n", name, res.Design, res.Nodes)
	fmt.Printf("  requests generated   %12d  (%d gets, %d puts)\n", res.Generated, res.Gets, res.Puts)
	fmt.Printf("  acked                %12d  (%.2f%% available)\n", res.Acked, 100*res.Available())
	fmt.Printf("  failed               %12d  (retry budget exhausted)\n", res.Failed)
	fmt.Printf("  committed puts       %12d  (incl. committed-but-unacked)\n", res.CommittedPuts)
	fmt.Printf("  simulated end        %12d  cycles (%.1f µs)\n", res.FinalCycle, us(res.FinalCycle))
	fmt.Println("latency (acked requests):")
	fmt.Printf("  p50                  %12d  cycles (%.1f µs)\n", res.Latency.Percentile(50), us(sim.Cycle(res.Latency.Percentile(50))))
	fmt.Printf("  p99                  %12d  cycles (%.1f µs)\n", res.Latency.Percentile(99), us(sim.Cycle(res.Latency.Percentile(99))))
	fmt.Printf("  max                  %12d  cycles (%.1f µs)\n", res.Latency.Max(), us(sim.Cycle(res.Latency.Max())))
	fmt.Println("network:")
	fmt.Printf("  timeouts             %12d\n", res.Timeouts)
	fmt.Printf("  retries              %12d\n", res.Retries)
	fmt.Printf("  shed (queue full)    %12d\n", res.Sheds)
	fmt.Printf("  fast-fails (down)    %12d\n", res.FastFails)
	fmt.Printf("  connection resets    %12d\n", res.Resets)
	fmt.Printf("  late responses       %12d\n", res.Late)

	if res.Replicas > 1 {
		fmt.Printf("replication: R=%d mode=%s\n", res.Replicas, res.Mode)
		fmt.Printf("  repl msgs sent       %12d  (%d applied, %d stale, %d dropped)\n",
			res.ReplSent, res.ReplApplied, res.ReplStale, res.ReplDropped)
		fmt.Printf("  promotions           %12d\n", res.Promotions)
		fmt.Printf("  resync entries       %12d\n", res.ResyncEntries)
		if res.Mode == cluster.ReplAsync || res.AckedLost > 0 {
			fmt.Printf("  acked writes lost    %12d  (bounded-async exposure)\n", res.AckedLost)
		} else {
			fmt.Printf("  acked writes lost    %12d\n", res.AckedLost)
		}
	}

	if res.Crashes > 0 {
		fmt.Printf("faults: %d node crashes, %d torn flush records, %d dropped, %d mid-recovery re-crashes\n",
			res.Crashes, res.Torn, res.Dropped, res.RecoveryRestarts)
		fmt.Printf("  recovery replayed %d records, %d redo + %d undo writes, %d tx\n",
			res.Recovery.TotalRecords, res.Recovery.RedoApplied, res.Recovery.UndoApplied, res.Recovery.CommittedTx)
		t := stats.NewTable("unavailability windows", "node", "strikes", "down at", "serving again",
			"window (µs)", "detect (µs)", "promote (µs)", "resync (µs)", "owner outage (µs)", "commits elsewhere")
		for _, w := range res.Windows {
			serving := fmt.Sprintf("%d", w.ServingAt)
			if !w.Closed {
				serving = "(load ended)"
			}
			promote, resync := "-", "-"
			if res.Replicas > 1 {
				promote = fmt.Sprintf("%.1f", us(w.Promote()))
				resync = fmt.Sprintf("%.1f", us(w.Resync()))
			}
			t.AddRow(fmt.Sprintf("%d", w.Node), fmt.Sprintf("%d", w.Strikes),
				fmt.Sprintf("%d", w.DownAt), serving,
				fmt.Sprintf("%.1f", us(w.Width())), fmt.Sprintf("%.1f", us(w.Detect())),
				promote, resync,
				fmt.Sprintf("%.1f", us(w.OwnerOutage())), fmt.Sprintf("%d", w.CommitsElsewhere))
		}
		fmt.Print(t.String())
	}

	t := stats.NewTable("per-node", "node", "served", "commits", "crashes")
	for i, n := range res.PerNode {
		t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", n.Served), fmt.Sprintf("%d", n.Commits), fmt.Sprintf("%d", n.Crashes))
	}
	fmt.Print(t.String())

	if len(res.Divergences) > 0 {
		fmt.Printf("cluster durability VIOLATED: %d divergences\n", len(res.Divergences))
		for i, d := range res.Divergences {
			if i == 10 {
				fmt.Println("  ...")
				break
			}
			fmt.Println(" ", d)
		}
	} else {
		fmt.Println("cluster durability HELD (acked writes survived; uncommitted writes rolled back)")
	}
}
