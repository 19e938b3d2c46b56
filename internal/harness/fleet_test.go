package harness

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"silo/internal/audit"
	"silo/internal/core"
	"silo/internal/fault"
	"silo/internal/machine"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// fleetConfig is a small sweep with a synthetic executor, so fleet
// plumbing tests don't pay for real simulations.
func fleetConfig(campaigns int, run func(Campaign) CampaignOutcome) TortureConfig {
	return TortureConfig{
		Seed:      4,
		Campaigns: campaigns,
		Txns:      8,
		Shrink:    false,
		Backoff:   time.Millisecond,
		Run:       run,
	}
}

// A campaign that panics must become one TortureFailure; the rest of the
// fleet completes and aggregates normally.
func TestFleetContainsPanickingCampaign(t *testing.T) {
	cfg := fleetConfig(6, func(c Campaign) CampaignOutcome {
		if c.Index == 3 {
			panic("synthetic campaign panic")
		}
		return CampaignOutcome{Campaign: c, Commits: 1}
	})
	res, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %d, want 1:\n%s", len(res.Failures), res.Summary())
	}
	f := res.Failures[0].Outcome
	if f.Campaign.Index != 3 || !f.Panicked {
		t.Errorf("failure = index %d panicked=%v", f.Campaign.Index, f.Panicked)
	}
	if !strings.Contains(f.Err.Error(), "synthetic campaign panic") {
		t.Errorf("err = %v", f.Err)
	}
	if len(f.Trail) == 0 {
		t.Error("no stack excerpt captured for the panic")
	}
	if res.Commits != 5 {
		t.Errorf("surviving campaigns not aggregated: commits = %d", res.Commits)
	}
	if !strings.Contains(res.Summary(), f.Campaign.Repro()) {
		t.Error("summary lacks the failing campaign's repro line")
	}
}

// skewedPeek is a machine whose Peek disagrees with the value its loads
// execute to.
type skewedPeek struct{ *machine.Machine }

func (p skewedPeek) Peek(core int, addr mem.Addr) mem.Word { return p.Machine.Peek(core, addr) + 1 }

// A load that executes to a different value than its program was given
// at issue must become a failed campaign, never a silent one.
func TestFleetReportsLoadMismatch(t *testing.T) {
	c := Campaign{Spec: Spec{Design: "Silo", Workload: "Array", Cores: 2, Txns: 8, Seed: 1}}
	out := runContained(func(c Campaign) CampaignOutcome {
		m, wl, err := Build(c.Spec)
		if err != nil {
			t.Error(err)
			return CampaignOutcome{Campaign: c}
		}
		streams := []sim.OpStream{wl.Stream(0, 4, sim.CoreRand(1, 0)), wl.Stream(1, 4, sim.CoreRand(1, 1))}
		sim.NewEngine(skewedPeek{m}, 2, 1).RunStreams(streams)
		return CampaignOutcome{Campaign: c}
	}, c, 0)
	if !out.Failed() || !out.Panicked {
		t.Fatalf("mismatch not reported as a failed campaign: err %v, panicked %v", out.Err, out.Panicked)
	}
	if !strings.Contains(out.Err.Error(), "program was given") {
		t.Errorf("err = %v, want the load mismatch", out.Err)
	}
}

// overflowSpec is a campaign whose every transaction issues more ops
// than a unit stream admits (65 536): Array at 1<<16 swaps per
// transaction, 4 ops each.
var overflowSpec = Spec{Design: "Silo", Workload: "Array", Cores: 2, Txns: 2, Seed: 1, OpsPerTx: 1 << 16}

// A unit that overflows the cap must become a failed campaign naming the
// core and the op count, never a hang of the fleet worker.
func TestFleetReportsUnitOverflow(t *testing.T) {
	out := runContained(RunCampaign, Campaign{Spec: overflowSpec}, 30*time.Second)
	if out.TimedOut || !out.Failed() || !out.Panicked {
		t.Fatalf("overflow not reported as a failed campaign: err %v, panicked %v, timed out %v", out.Err, out.Panicked, out.TimedOut)
	}
	if !strings.Contains(out.Err.Error(), "core 0 issued 65537 ops in one unit") {
		t.Errorf("err = %v, want the unit overflow of core 0", out.Err)
	}
}

// Infra failures are retried with backoff; a campaign that recovers on a
// later attempt counts as clean.
func TestFleetRetriesInfraFlakes(t *testing.T) {
	var mu sync.Mutex
	attempts := map[int]int{}
	cfg := fleetConfig(3, func(c Campaign) CampaignOutcome {
		mu.Lock()
		attempts[c.Index]++
		n := attempts[c.Index]
		mu.Unlock()
		if c.Index == 1 && n <= 2 {
			return CampaignOutcome{Campaign: c, Err: InfraError{errors.New("flaky host")}}
		}
		return CampaignOutcome{Campaign: c}
	})
	cfg.Retries = 3
	sink := &memSink{}
	cfg.Sink = sink
	res, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || len(res.Infra) != 0 {
		t.Fatalf("recovered flake still reported:\n%s", res.Summary())
	}
	if attempts[1] != 3 {
		t.Errorf("campaign 1 ran %d times, want 3", attempts[1])
	}
	for _, r := range sink.recs {
		if r.Index == 1 && r.Attempts != 3 {
			t.Errorf("record attempts = %d, want 3", r.Attempts)
		}
	}
}

// A campaign whose infra failures outlast the retry budget lands in
// Infra — visible, with its attempt count — without failing Ok().
func TestFleetReportsExhaustedInfraRetries(t *testing.T) {
	cfg := fleetConfig(1, func(c Campaign) CampaignOutcome {
		return CampaignOutcome{Campaign: c, Err: InfraError{errors.New("host out of memory")}}
	})
	cfg.Retries = 1
	res, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("infra-only sweep failed Ok():\n%s", res.Summary())
	}
	if len(res.Infra) != 1 || res.Infra[0].Outcome.Attempts != 2 {
		t.Fatalf("infra = %+v", res.Infra)
	}
	if !strings.Contains(res.Summary(), "infra: campaign 0") {
		t.Errorf("summary lacks infra report:\n%s", res.Summary())
	}
}

// The wall-clock watchdog abandons a wedged campaign and reports it as
// an infra timeout; the fleet is not held hostage.
func TestFleetWallClockWatchdog(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // unblock the abandoned goroutine at test end
	cfg := fleetConfig(3, func(c Campaign) CampaignOutcome {
		if c.Index == 2 {
			<-release
		}
		return CampaignOutcome{Campaign: c}
	})
	cfg.WallBudget = 50 * time.Millisecond
	cfg.Retries = -1
	res, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("timeout failed Ok():\n%s", res.Summary())
	}
	if len(res.Infra) != 1 {
		t.Fatalf("infra = %d, want 1", len(res.Infra))
	}
	o := res.Infra[0].Outcome
	if !o.TimedOut || o.Campaign.Index != 2 || !IsInfra(o.Err) {
		t.Errorf("outcome = %+v", o)
	}
}

// The sim-cycle watchdog kills a run that makes no progress to
// completion (a livelocked design would otherwise spin the simulated
// clock forever) and classifies it as infra, not a durability verdict.
func TestCampaignSimCycleWatchdog(t *testing.T) {
	c := Campaign{Spec: Spec{
		Design: "Silo", Workload: "Array", Cores: 1, Txns: 1 << 20,
		Seed: 3, MaxCycles: 500,
	}, Plan: fault.Plan{Trigger: fault.TriggerNone}}
	out := RunCampaignContained(c)
	if !out.TimedOut || !IsInfra(out.Err) {
		t.Fatalf("outcome = %+v", out)
	}
	if !strings.Contains(out.Err.Error(), "sim-cycle watchdog") {
		t.Errorf("err = %v", out.Err)
	}
}

// A closed Stop channel drains the sweep: unstarted campaigns are
// skipped, the result says so, and the summary names the interruption.
func TestFleetStopDrains(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	cfg := fleetConfig(8, func(c Campaign) CampaignOutcome {
		t.Error("campaign ran despite closed Stop")
		return CampaignOutcome{Campaign: c}
	})
	cfg.Stop = stop
	res, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 8 || !res.Interrupted {
		t.Fatalf("skipped=%d interrupted=%v", res.Skipped, res.Interrupted)
	}
	if !strings.Contains(res.Summary(), "interrupted: 8 campaigns skipped") {
		t.Errorf("summary lacks interruption notice:\n%s", res.Summary())
	}
}

// Interrupt + resume must reproduce the uninterrupted sweep's aggregates
// byte for byte, with the resumed half replayed from a checkpoint store.
func TestFleetResumeByteIdenticalAggregates(t *testing.T) {
	base := TortureConfig{Seed: 6, Campaigns: 8, Txns: 8, Shrink: false}

	full, err := Torture(base)
	if err != nil {
		t.Fatal(err)
	}

	// Run again streaming records, and store only the first 5 indices —
	// simulating a sweep interrupted partway through its checkpoint.
	mem := &memSink{}
	cfg := base
	cfg.Sink = mem
	if _, err := Torture(cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.srs")
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	prefix := map[int]Record{}
	for _, r := range mem.recs[:5] {
		prefix[r.Index] = r
	}
	if err := sink.Seed(prefix); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("checkpoint holds %d records, want 5", len(recs))
	}
	var mu sync.Mutex
	resumedRuns := 0
	cfg = base
	cfg.Resume = recs
	cfg.Run = func(c Campaign) CampaignOutcome {
		mu.Lock()
		resumedRuns++
		mu.Unlock()
		return RunCampaign(c)
	}
	resumed, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumedRuns != 3 {
		t.Errorf("resumed sweep re-executed %d campaigns, want 3", resumedRuns)
	}
	if full.Summary() != resumed.Summary() {
		t.Errorf("aggregates differ after resume:\n--- full ---\n%s--- resumed ---\n%s",
			full.Summary(), resumed.Summary())
	}
}

// TraceDir re-runs only the failing campaigns with a Chrome-trace sink:
// the failure gets a validated trace file and a summary pointer, the
// passing campaigns get nothing.
func TestFleetTracesFailingCampaigns(t *testing.T) {
	dir := t.TempDir()
	cfg := fleetConfig(3, func(c Campaign) CampaignOutcome {
		// The trace re-run attaches a recorder via Spec.Telemetry; emit a
		// tiny tx lifecycle through it so the recording has real events.
		if tel := c.Spec.Telemetry; tel.Enabled() {
			tel.TxBegin(0, 100, 0)
			tel.TxCommit(0, 250, 10, 2, 150)
		}
		if c.Index == 1 {
			return CampaignOutcome{Campaign: c, Mismatches: []string{"0x10 = 0 want 1"}}
		}
		return CampaignOutcome{Campaign: c}
	})
	cfg.TraceDir = dir
	res, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %d, want 1:\n%s", len(res.Failures), res.Summary())
	}
	p := res.Failures[0].TracePath
	if want := filepath.Join(dir, "campaign-1.trace.json"); p != want {
		t.Fatalf("trace path = %q, want %q", p, want)
	}
	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := telemetry.ValidateChromeTrace(f)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if ts.Events == 0 {
		t.Error("trace recorded no events")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("trace dir holds %d files, want 1 (passing campaigns must not be traced)", len(entries))
	}
	if !strings.Contains(res.Summary(), p) {
		t.Errorf("summary lacks the trace path:\n%s", res.Summary())
	}
}

// A seeded §III-G ordering bug — crash-flushing a committed
// transaction's redo records before its commit ID tuple — must be caught
// by the named crash-flush-order invariant. The golden shadow cannot see
// it: with an unbounded battery all records survive, and recovery's scan
// finds the tuple no matter where it sits.
func TestAuditorCatchesRedoBeforeCommitTuple(t *testing.T) {
	c := Campaign{Spec: Spec{
		Design: "Silo", Workload: "Array", Cores: 1, Txns: 4, Seed: 7,
		SiloOpts: core.Options{DebugRedoBeforeCommit: true},
	}, Plan: fault.Plan{Trigger: fault.TriggerCommit, AfterCommits: 1, Seed: 7}}

	out := RunCampaignContained(c)
	if out.Invariant != audit.InvCrashOrder {
		t.Fatalf("invariant = %q (err %v), want %q", out.Invariant, out.Err, audit.InvCrashOrder)
	}
	if !out.Panicked || len(out.Trail) == 0 {
		t.Errorf("contained violation lost its panic/trail: %+v", out)
	}

	// Same bug, auditor off: the end-to-end verdict is clean — which is
	// exactly why the ordering rule needs a runtime invariant.
	blind := c
	blind.Spec.DisableAudit = true
	if out := RunCampaignContained(blind); out.Failed() {
		t.Fatalf("golden shadow caught the ordering bug; mutation premise broken: %v, %v",
			out.Err, out.Mismatches)
	}

	// And without the seeded bug the invariant is quiet.
	clean := c
	clean.Spec.SiloOpts = core.Options{}
	if out := RunCampaignContained(clean); out.Failed() {
		t.Fatalf("clean campaign failed: %v, %v", out.Err, out.Mismatches)
	}
}

// shrinkWith must return a reproducer that still fails, and every reduction
// it kept must be individually safe: restoring any single reduced
// dimension to its original value keeps the campaign failing.
func TestShrinkMinimalFailingReproducer(t *testing.T) {
	if testing.Short() {
		t.Skip("shrink executes many campaigns")
	}
	orig := Campaign{Spec: Spec{
		Design: "Silo", Workload: "Sweep40", Cores: 2, Txns: 8, Seed: 5,
	}, Plan: fault.Plan{
		Trigger: fault.TriggerCommit, AfterCommits: 1,
		FlushBudget: 8, TearWords: true, StrictBudget: true, Seed: 5,
	}}
	fails := func(c Campaign) bool {
		out := RunCampaignContained(c)
		return !IsInfra(out.Err) && out.Failed()
	}
	if !fails(orig) {
		t.Fatal("chosen campaign does not fail; shrink test premise broken")
	}
	s := shrinkWith(orig, fails)
	if !fails(s) {
		t.Fatalf("shrunk campaign no longer fails: %s", s.Repro())
	}
	if s.Spec.Txns > orig.Spec.Txns || s.Spec.Cores > orig.Spec.Cores {
		t.Fatalf("shrink grew the campaign: %s", s.Repro())
	}
	var restores []func(*Campaign)
	if s.Spec.Txns != orig.Spec.Txns {
		restores = append(restores, func(c *Campaign) { c.Spec.Txns = orig.Spec.Txns })
	}
	if s.Spec.Cores != orig.Spec.Cores {
		restores = append(restores, func(c *Campaign) { c.Spec.Cores = orig.Spec.Cores })
	}
	if s.Plan.StrictBudget != orig.Plan.StrictBudget {
		restores = append(restores, func(c *Campaign) { c.Plan.StrictBudget = orig.Plan.StrictBudget })
	}
	if s.Plan.FlushBudget != orig.Plan.FlushBudget || s.Plan.TearWords != orig.Plan.TearWords {
		restores = append(restores, func(c *Campaign) {
			c.Plan.FlushBudget = orig.Plan.FlushBudget
			c.Plan.TearWords = orig.Plan.TearWords
		})
	}
	if s.Plan.Trigger != orig.Plan.Trigger {
		restores = append(restores, func(c *Campaign) {
			c.Plan.Trigger = orig.Plan.Trigger
			c.Plan.AfterCommits = orig.Plan.AfterCommits
		})
	}
	if len(restores) == 0 {
		t.Fatal("shrink reduced nothing on a shrinkable campaign")
	}
	for i, restore := range restores {
		trial := s
		restore(&trial)
		if !fails(trial) {
			t.Errorf("restoring reduction %d stops the failure — shrink kept an unsafe reduction (%s)",
				i, trial.Repro())
		}
	}
}
