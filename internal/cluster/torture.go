package cluster

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"silo/internal/fault"
	"silo/internal/harness"
	"silo/internal/sim"
)

// Scenario derives the fully-determined cluster run for one torture
// campaign. The mapping rides the generic campaign fields so the
// fleet's shrinker keeps working unchanged: Spec.Cores is the node
// count (dropping cores → fewer nodes), Spec.Txns the request count
// (bisecting txns → shorter load), and Spec.Seed everything else — the
// ring, the load mix, the crash schedule. c.Plan becomes the per-crash
// template (budget, tearing, re-crash cadence, optional self-trigger).
func Scenario(c harness.Campaign) Config {
	cfg := Config{
		Seed:     c.Spec.Seed,
		Design:   c.Spec.Design,
		Nodes:    c.Spec.Cores,
		Requests: c.Spec.Txns,
		// Cluster campaigns are small enough that per-request audit and
		// telemetry stay affordable; audit follows the spec flag.
		DisableAudit: c.Spec.DisableAudit,
		Telemetry:    c.Spec.Telemetry,
	}
	rng := rand.New(rand.NewSource(c.Spec.Seed ^ 0x736361747465)) // "scatte[r]"
	cfg.Keys = 256 << rng.Intn(3)                                 // 256–1024: enough collisions to matter
	cfg.Tenants = 1 + rng.Intn(4)
	cfg.ReadPercent = 30 + rng.Intn(60)
	cfg.ZipfS = 1.01 + rng.Float64()*0.4
	cfg.MeanGap = 600 + float64(rng.Intn(1400))
	if rng.Intn(2) == 0 {
		cfg.DiurnalAmp = 0.3 + rng.Float64()*0.5
		cfg.DiurnalPeriod = cfg.LoadHorizon() / sim.Cycle(1+rng.Intn(3))
	}
	plan := fault.RandomCluster(rng, cfg.Nodes, cfg.LoadHorizon(), c.Plan)
	cfg.Plan = &plan
	// Replication rides the workload name ("ClusterKV/r3/sync") so
	// records and resume streams stay self-describing; the bare name
	// derives R from the seed instead. Seed-derived campaigns stay
	// sync-only — the sweep-wide zero-acked-loss claim only holds for
	// sync replication, and async exposure is an explicit opt-in.
	reps, mode, explicit := parseReplWorkload(c.Spec.Workload)
	if !explicit {
		reps, mode = 1+rng.Intn(3), ReplSync
	}
	if reps > cfg.Nodes {
		reps = cfg.Nodes
	}
	cfg.Replicas, cfg.Replication = reps, mode
	// Half the campaigns chase their own recent writes, pinning reads
	// to the keys most exposed across a failover.
	if rng.Intn(2) == 0 {
		cfg.ReadRecentBias = 20 + rng.Intn(60)
	}
	return cfg
}

// replWorkload encodes a forced replication config into the campaign
// workload name; parseReplWorkload is its inverse, reporting explicit =
// false for the bare name (seed-derived replication).
func replWorkload(replicas int, mode ReplicationMode) string {
	if replicas <= 0 {
		return "ClusterKV"
	}
	return fmt.Sprintf("ClusterKV/r%d/%s", replicas, mode)
}

func parseReplWorkload(name string) (replicas int, mode ReplicationMode, explicit bool) {
	rest, ok := strings.CutPrefix(name, "ClusterKV/r")
	if !ok {
		return 0, ReplSync, false
	}
	rs, ms, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, ReplSync, false
	}
	r, err := strconv.Atoi(rs)
	if err != nil || r < 1 {
		return 0, ReplSync, false
	}
	m, err := ParseReplicationMode(ms)
	if err != nil {
		return 0, ReplSync, false
	}
	return r, m, true
}

// availSummary projects a cluster result's crash windows onto the
// fleet's availability phase breakdown.
func availSummary(res Result) *harness.AvailSummary {
	if res.Replicas <= 1 && len(res.Windows) == 0 {
		return nil
	}
	a := &harness.AvailSummary{
		Replicas:  res.Replicas,
		Windows:   len(res.Windows),
		AckedLost: res.AckedLost,
	}
	if a.Replicas < 1 {
		a.Replicas = 1
	}
	if res.Replicas > 1 {
		a.Mode = res.Mode.String()
	}
	for _, w := range res.Windows {
		a.Strikes += w.Strikes
		a.DetectSum += int64(w.Detect())
		a.PromoteSum += int64(w.Promote())
		a.ResyncSum += int64(w.Resync())
		width, owner := int64(w.Width()), int64(w.OwnerOutage())
		a.WidthSum += width
		a.OwnerSum += owner
		if width > a.WidthMax {
			a.WidthMax = width
		}
		if owner > a.OwnerMax {
			a.OwnerMax = owner
		}
	}
	return a
}

// RunCampaign executes one cluster campaign and maps its Result onto
// the fleet's generic outcome: cluster-shadow divergences and per-node
// golden-shadow mismatches land in Mismatches (a durability verdict),
// event-budget and drain failures land in Err as infra.
func RunCampaign(c harness.Campaign) harness.CampaignOutcome {
	out := harness.CampaignOutcome{Campaign: c}
	res := Run(Scenario(c))
	if res.Err != nil {
		if res.Infra {
			out.Err = harness.InfraError{Err: res.Err}
		} else {
			out.Err = res.Err
		}
		return out
	}
	out.MidRun = res.Crashes > 0
	out.Commits = res.CommittedPuts
	out.Torn = res.Torn
	out.Dropped = res.Dropped
	out.Restarts = res.RecoveryRestarts
	out.Report = res.Recovery
	out.Report.Complete = true
	out.Mismatches = res.Divergences
	out.Avail = availSummary(res)
	return out
}

// SweepConfig adapts a fleet config for cluster campaigns: cfg.Cores
// is the node count (default 4) and cfg.Txns the request count
// (default 400). replicas forces every campaign's replica-set size
// with mode; 0 derives R from each campaign's seed, sync only.
func SweepConfig(cfg harness.TortureConfig, replicas int, mode ReplicationMode) harness.TortureConfig {
	// The workload name carries the forced replication config so
	// records and repro lines stay self-describing; Scenario derives
	// the rest from the seed.
	cfg.Workloads = []string{replWorkload(replicas, mode)}
	cfg.Run = RunCampaign
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 400
	}
	return cfg
}
