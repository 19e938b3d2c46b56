package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"silo/internal/audit"
	"silo/internal/fault"
	"silo/internal/machine"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// TortureConfig parameterizes a crash-storm campaign sweep: every
// campaign is an independent (design × workload × seeded crash schedule)
// run whose recovered PM state is verified word-for-word against the
// machine's golden committed shadow.
type TortureConfig struct {
	Seed      int64
	Campaigns int
	// Offset shifts the campaign index range to [Offset, Offset+Campaigns):
	// campaign k of a sweep reproduces alone with Offset=k, Campaigns=1.
	Offset    int
	Designs   []string // default DesignNames()
	Workloads []string // default {"Array", "Hash", "TPCC"}
	Cores     int      // default 2
	Txns      int      // default 48
	OpsPerTx  int      // default 0 (workload native)

	// AllowStrict admits beyond-spec battery faults (critical records
	// draw from the budget) and AllowBitFlips admits log media
	// corruption. Both can legitimately lose committed work — the CRCs
	// detect, they cannot restore — so the zero-mismatch guarantee only
	// holds with them off.
	AllowStrict   bool
	AllowBitFlips bool

	// Shrink reduces each failing campaign to a minimal reproducer.
	Shrink bool

	// TraceDir, when non-empty, re-runs every *failing* campaign with a
	// Chrome-trace telemetry sink attached and writes the timeline to
	// DIR/campaign-<idx>.trace.json (Perfetto-loadable). Passing
	// campaigns are never traced — the sweep stays cheap, and only the
	// runs someone will actually debug pay for a recording.
	TraceDir string

	Parallel int // concurrent campaigns (0 → GOMAXPROCS)

	// DisableAudit turns off the runtime invariant layer inside every
	// campaign (the sweep then only has the golden shadow).
	DisableAudit bool

	// MaxCycles is the per-campaign sim-cycle watchdog: a campaign whose
	// simulated clock reaches it is killed as livelocked and reported as
	// an infra failure (default 1<<31 cycles ≈ 1 simulated second; < 0
	// disables).
	MaxCycles sim.Cycle

	// WallBudget is the per-campaign wall-clock watchdog (default 2m;
	// < 0 disables). A campaign that exceeds it is abandoned — its
	// goroutine is leaked by design, the only containment Go offers for
	// a wedged computation — and reported as an infra failure.
	WallBudget time.Duration

	// Retries bounds re-runs of campaigns that failed for infra reasons
	// (watchdogs, host flakes); verification failures are deterministic
	// and never retried (default 2; < 0 disables).
	Retries int
	// Backoff is the base delay between retries, doubling each attempt
	// with deterministic seeded jitter (default 50ms). The delay for
	// (seed, campaign, attempt) is a pure function — no wall-clock
	// dependence — so a resumed sweep retries on the same schedule.
	Backoff time.Duration

	// Resume maps campaign index → completed record from a previous
	// run's checkpoint store (LoadRecords); those campaigns are not
	// re-executed, and the final aggregates are byte-identical to an
	// uninterrupted sweep.
	Resume map[int]Record

	// Sink, when non-nil, receives every freshly completed campaign's
	// record, in campaign-index order. It is two-phase: Encode runs on
	// the campaign's own goroutine — record construction and marshaling
	// stay out of the fleet's emit lock — and only Write is serialized.
	Sink RecordSink

	// OnSinkError receives Sink Encode/Write failures (host-level I/O
	// problems, not campaign verdicts). Nil drops them; the fleet never
	// aborts on a checkpoint write failure.
	OnSinkError func(error)

	// Stop, when non-nil and closed, drains the sweep: campaigns not yet
	// started are skipped and the partial aggregates returned.
	Stop <-chan struct{}

	// Run overrides the campaign executor (fleet tests); default
	// RunCampaign. Torture wraps it in panic containment either way.
	Run func(Campaign) CampaignOutcome

	// Make overrides campaign derivation (the design-space explorer maps
	// an index to a grid point instead of a random sample); default
	// MakeCampaign. It receives the global campaign index (Offset
	// applied) and must be a pure function of it — resume, repro, and
	// cross-worker determinism all depend on index → campaign being
	// stable.
	Make func(i int) Campaign
}

func (c *TortureConfig) defaults() {
	if c.Campaigns <= 0 {
		c.Campaigns = 100
	}
	if len(c.Designs) == 0 {
		c.Designs = DesignNames()
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"Array", "Hash", "TPCC"}
	}
	if c.Cores <= 0 {
		c.Cores = 2
	}
	if c.Txns <= 0 {
		c.Txns = 48
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 1 << 31
	}
	if c.WallBudget == 0 {
		c.WallBudget = 2 * time.Minute
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff == 0 {
		c.Backoff = 50 * time.Millisecond
	}
}

// Campaign is one fully-determined torture run.
type Campaign struct {
	Index int
	Spec  Spec
	Plan  fault.Plan
}

// Repro renders the silo-torture command line that replays this exact
// campaign (design, workload, machine shape, and crash schedule).
func (c Campaign) Repro() string {
	return fmt.Sprintf(
		"go run ./cmd/silo-torture -designs %s -workloads %s -cores %d -txns %d -seed %d -plan %q",
		c.Spec.Design, c.Spec.Workload, c.Spec.Cores, c.Spec.Txns, c.Spec.Seed, c.Plan.String())
}

// MakeCampaign derives campaign i of the sweep deterministically from
// the config: same seed and index, same campaign, on any machine.
func MakeCampaign(cfg TortureConfig, i int) Campaign {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*1_000_003))
	spec := Spec{
		Design:   cfg.Designs[rng.Intn(len(cfg.Designs))],
		Workload: cfg.Workloads[rng.Intn(len(cfg.Workloads))],
		Cores:    cfg.Cores,
		Txns:     cfg.Txns,
		Seed:     rng.Int63(),
		OpsPerTx: cfg.OpsPerTx,
	}
	// Rough op-count scale for trigger placement: a transaction is a
	// begin + end + a handful of loads/stores per op.
	opsPerTx := int64(cfg.OpsPerTx)
	if opsPerTx < 1 {
		opsPerTx = 1
	}
	totalOps := int64(cfg.Txns) * (2 + 8*opsPerTx)
	plan := fault.Random(rng, totalOps, cfg.AllowStrict, cfg.AllowBitFlips)
	spec.DisableAudit = cfg.DisableAudit
	if cfg.MaxCycles > 0 {
		spec.MaxCycles = cfg.MaxCycles
	}
	return Campaign{Index: i, Spec: spec, Plan: plan}
}

// CampaignOutcome is the record of one executed campaign.
type CampaignOutcome struct {
	Campaign   Campaign
	Err        error
	Mismatches []string // golden-shadow verification failures
	Report     recovery.Report
	MidRun     bool  // the trigger fired before the workload finished
	Commits    int64 // transactions committed before the crash
	Restarts   int   // mid-recovery re-crashes survived
	Checked    int   // transactional words verified against the golden shadow
	Torn       int64 // crash-flush records torn by the energy budget
	Dropped    int64 // crash-flush records dropped entirely

	// Avail is the availability phase breakdown for cluster campaigns
	// (nil for machine-scope campaigns and for cluster runs with
	// neither replication nor crash windows).
	Avail *AvailSummary

	// Explore carries the design-space explorer's per-point metrics
	// (nil for torture campaigns); see internal/explore.
	Explore *ExploreMetrics

	// Invariant names the audit invariant that fired (empty otherwise);
	// Trail is the auditor's ring-buffered event trail at that moment,
	// or a bounded stack excerpt for a non-audit panic.
	Invariant string
	Trail     []string

	Panicked bool // the campaign goroutine panicked (contained)
	TimedOut bool // a watchdog (wall-clock or sim-cycle) killed it
	Infra    bool // Err is an infra failure, not a durability verdict
	Attempts int  // executions including retries (0 for resumed records)
}

// Failed reports whether the campaign violated atomic durability (or
// could not run at all).
func (o CampaignOutcome) Failed() bool { return o.Err != nil || len(o.Mismatches) > 0 }

// InfraError marks a campaign failure caused by the host or the harness
// (watchdog kills, resource flakes) rather than by the design under
// test; the fleet retries these with backoff and CI distinguishes them
// from durability bugs by exit code.
type InfraError struct{ Err error }

func (e InfraError) Error() string { return "infra: " + e.Err.Error() }
func (e InfraError) Unwrap() error { return e.Err }

// IsInfra reports whether err is (or wraps) an InfraError.
func IsInfra(err error) bool {
	var ie InfraError
	return errors.As(err, &ie)
}

// VerifyRecovery checks every word any transaction ever wrote against
// the machine's golden committed shadow and returns the mismatches in
// address order, plus the number of words it checked.
func VerifyRecovery(m *machine.Machine) (bad []string, checked int) {
	for _, a := range m.WrittenWords() {
		want, ok := m.GoldenCommitted(a)
		if !ok {
			continue
		}
		checked++
		if got := m.Device().PeekWord(a); got != want {
			bad = append(bad, fmt.Sprintf("%v = %#x want %#x", a, uint64(got), uint64(want)))
		}
	}
	return bad, checked
}

// RunCampaign executes one campaign end to end: run until the crash
// schedule fires (or the workload finishes, in which case power fails at
// completion), recover — re-crashing recovery itself if the plan says so
// until a pass completes — verify the full golden shadow, then recover
// once more and re-verify to prove a completed recovery is idempotent.
func RunCampaign(c Campaign) CampaignOutcome {
	out := CampaignOutcome{Campaign: c}
	spec := c.Spec
	plan := c.Plan // private copy: campaigns must not share mutable state
	spec.Fault = &plan
	m, _, err := RunMachine(spec)
	if err != nil {
		out.Err = err
		return out
	}
	defer m.Release() // outcome extraction below is the machine's last use
	if m.WatchdogFired() {
		// The sim-cycle budget killed a livelocked run; no battery flush
		// ran, so there is no durability verdict to extract.
		out.Err = InfraError{fmt.Errorf("sim-cycle watchdog: no progress to completion within %d cycles", spec.MaxCycles)}
		out.TimedOut = true
		return out
	}
	out.MidRun = m.Crashed()
	if !out.MidRun {
		// The schedule never fired mid-run; the power still goes out.
		m.InjectCrash(m.Now())
	}
	out.Commits = m.Commits()
	out.Torn = m.Region().CrashImagesTorn
	out.Dropped = m.Region().CrashImagesDropped

	out.Report, out.Restarts = recovery.RecoverRestarting(m.Device(), m.Region(), plan.RecrashEvery, recovery.Options{})
	out.Mismatches, out.Checked = VerifyRecovery(m)

	// Idempotence: a second full pass over the same log must change
	// nothing. The comparison is by mismatch *content*, not count — a
	// second pass corrupting different words of equal count is just as
	// broken — and first-pass mismatches are never dropped.
	second := recovery.Recover(m.Device(), m.Region())
	again, _ := VerifyRecovery(m)
	out.Mismatches = append(out.Mismatches, audit.CompareRecoveryPasses(
		out.Mismatches, again,
		out.Report.TotalRecords, second.TotalRecords,
		out.Report.Quarantined, second.Quarantined)...)
	return out
}

// RunCampaignContained is RunCampaign behind the fleet's panic
// containment: an audit violation or stray panic becomes a failed
// outcome carrying the invariant name and event trail.
func RunCampaignContained(c Campaign) CampaignOutcome {
	return runContained(RunCampaign, c, 0)
}

// runContained executes run(c) on its own goroutine, converting panics
// into failed outcomes and enforcing the wall-clock watchdog (wall <= 0
// disables). On timeout the campaign goroutine is abandoned — leaked by
// design; Go offers no way to kill a wedged computation — and an infra
// failure is returned.
func runContained(run func(Campaign) CampaignOutcome, c Campaign, wall time.Duration) CampaignOutcome {
	done := make(chan CampaignOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out := CampaignOutcome{Campaign: c, Panicked: true}
				if v, ok := r.(*audit.Violation); ok {
					out.Err = v
					out.Invariant = v.Invariant
					out.Trail = v.Trail
				} else {
					out.Err = fmt.Errorf("panic: %v", r)
					out.Trail = stackTrail()
				}
				done <- out
			}
		}()
		done <- run(c)
	}()
	if wall <= 0 {
		return <-done
	}
	timer := time.NewTimer(wall)
	defer timer.Stop()
	select {
	case out := <-done:
		return out
	case <-timer.C:
		return CampaignOutcome{
			Campaign: c,
			Err:      InfraError{fmt.Errorf("wall-clock watchdog: campaign still running after %v", wall)},
			TimedOut: true,
		}
	}
}

// stackTrail returns a bounded stack excerpt for non-audit panics.
func stackTrail() []string {
	buf := make([]byte, 8<<10)
	n := runtime.Stack(buf, false)
	lines := strings.Split(strings.TrimRight(string(buf[:n]), "\n"), "\n")
	if len(lines) > 24 {
		lines = lines[:24]
	}
	return lines
}

// shrinkWith reduces a failing campaign to a minimal reproducer: bisect
// the transaction count, drop to one core, then strip crash-schedule
// features one at a time, keeping each reduction only while fails holds.
func shrinkWith(c Campaign, fails func(Campaign) bool) Campaign {
	for c.Spec.Txns > 1 {
		trial := c
		trial.Spec.Txns = c.Spec.Txns / 2
		if !fails(trial) {
			break
		}
		c = trial
	}
	if c.Spec.Cores > 1 {
		trial := c
		trial.Spec.Cores = 1
		if fails(trial) {
			c = trial
		}
	}
	mods := []func(*fault.Plan){
		func(p *fault.Plan) { p.RecrashEvery = 0 },
		func(p *fault.Plan) { p.BitFlips = 0 },
		func(p *fault.Plan) { p.StrictBudget = false },
		func(p *fault.Plan) { p.FlushBudget = 0; p.TearWords = false },
		func(p *fault.Plan) { p.Trigger = fault.TriggerNone },
	}
	for _, mod := range mods {
		trial := c
		mod(&trial.Plan)
		if fails(trial) {
			c = trial
		}
	}
	return c
}

// TortureFailure is one campaign that violated atomic durability.
type TortureFailure struct {
	Outcome CampaignOutcome
	// Shrunk is the minimal reproducer (nil unless Shrink was on).
	Shrunk *Campaign
	// TracePath is the Chrome-trace recording of the failing run (empty
	// unless TraceDir was set and the re-run produced one).
	TracePath string
}

// TortureResult aggregates a campaign sweep.
type TortureResult struct {
	Campaigns     int
	MidRunCrashes int
	Commits       int64
	RecoveredTx   int
	RedoApplied   int
	UndoApplied   int
	Quarantined   int
	Torn          int64
	Dropped       int64
	Restarts      int
	Failures      []TortureFailure

	// Avail aggregates cluster availability breakdowns by replication
	// configuration ("r1", "r3/sync", ...); empty for machine sweeps.
	Avail map[string]*AvailSummary

	// Infra lists campaigns that never produced a durability verdict
	// (watchdog kills, host flakes) after exhausting retries; they do
	// not fail Ok() but CI surfaces them with a distinct exit code.
	Infra []TortureFailure

	// Skipped counts campaigns never started because Stop drained the
	// sweep; Interrupted is set when that happened.
	Skipped     int
	Interrupted bool
}

// Ok reports whether every campaign that ran verified clean.
func (r TortureResult) Ok() bool { return len(r.Failures) == 0 }

// Summary renders the sweep as a short report, with a repro line per
// failure.
func (r TortureResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "torture: %d campaigns, %d crashed mid-run, %d tx committed\n",
		r.Campaigns, r.MidRunCrashes, r.Commits)
	fmt.Fprintf(&b, "recovery: %d tx recovered, %d redo, %d undo, %d quarantined, %d torn, %d dropped, %d mid-recovery re-crashes\n",
		r.RecoveredTx, r.RedoApplied, r.UndoApplied, r.Quarantined, r.Torn, r.Dropped, r.Restarts)
	if len(r.Avail) > 0 {
		b.WriteString("availability:\n")
		b.WriteString(availLines(r.Avail, "  "))
	}
	if r.Skipped > 0 {
		fmt.Fprintf(&b, "interrupted: %d campaigns skipped (resume to finish them)\n", r.Skipped)
	}
	for _, f := range r.Infra {
		o := f.Outcome
		fmt.Fprintf(&b, "infra: campaign %d (%s on %s, %d attempts): %v\n",
			o.Campaign.Index, o.Campaign.Spec.Design, o.Campaign.Spec.Workload, o.Attempts, o.Err)
		fmt.Fprintf(&b, "    repro: %s\n", o.Campaign.Repro())
	}
	if r.Ok() {
		b.WriteString("result: PASS (zero post-recovery mismatches)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "result: FAIL (%d campaigns violated atomic durability)\n", len(r.Failures))
	for _, f := range r.Failures {
		o := f.Outcome
		fmt.Fprintf(&b, "  campaign %d: %s on %s", o.Campaign.Index, o.Campaign.Spec.Design, o.Campaign.Spec.Workload)
		if o.Err != nil {
			fmt.Fprintf(&b, " error: %v\n", o.Err)
		} else {
			n := len(o.Mismatches)
			show := o.Mismatches
			if len(show) > 3 {
				show = show[:3]
			}
			fmt.Fprintf(&b, " %d mismatches: %s\n", n, strings.Join(show, "; "))
		}
		if o.Invariant != "" {
			tail := o.Trail
			if len(tail) > 4 {
				tail = tail[len(tail)-4:]
			}
			for _, e := range tail {
				fmt.Fprintf(&b, "    trail: %s\n", e)
			}
		}
		fmt.Fprintf(&b, "    repro: %s\n", o.Campaign.Repro())
		if f.Shrunk != nil {
			fmt.Fprintf(&b, "    shrunk: %s\n", f.Shrunk.Repro())
		}
		if f.TracePath != "" {
			fmt.Fprintf(&b, "    trace: %s\n", f.TracePath)
		}
	}
	return b.String()
}

// RetryDelay is the infra-retry backoff for (seed, campaign, attempt):
// the base doubling each attempt, plus up to half a base of jitter
// drawn from a splitmix of the inputs. It is a pure function — two runs
// of the same sweep retry on the identical schedule, with no wall-clock
// or shared-RNG dependence, and distinct campaigns still decorrelate so
// a burst of infra failures does not retry in lockstep.
func RetryDelay(seed int64, campaign, attempt int, base time.Duration) time.Duration {
	d := base << attempt
	if base <= 0 {
		return 0
	}
	x := uint64(seed) ^ uint64(campaign)*0x9e3779b97f4a7c15 ^ uint64(attempt)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	jitter := time.Duration(x % uint64(base/2+1))
	return d + jitter
}

// reorderWindowPerWorker sizes the fleet's reorder window: the sweep
// holds at most Parallel*reorderWindowPerWorker completed-but-undrained
// outcomes, so memory is O(Parallel + window) regardless of campaign
// count, while workers stay busy across moderate completion skew.
const reorderWindowPerWorker = 4

// fleetSlot is one reorder-window entry: a completed (or resumed, or
// skipped) campaign waiting for every earlier index to drain.
type fleetSlot struct {
	out     CampaignOutcome
	rec     Record
	enc     []byte
	encErr  error
	hasRec  bool
	skipped bool
	done    bool
}

// Torture runs the campaign sweep as a hardened fleet: a fixed pool of
// Parallel workers pulls campaign indices from a bounded dispatcher,
// each campaign behind panic containment, wall-clock and sim-cycle
// watchdogs, and bounded infra retries. Each worker reuses its
// simulation state across campaigns through a machine.Recycler.
// Completed outcomes stream through an in-order reorder window —
// aggregates and the checkpoint record stream are emitted strictly in
// campaign-index order — so results are byte-identical regardless of
// parallelism (and, with Resume, regardless of interruption), and
// memory stays O(Parallel + window) instead of O(Campaigns).
func Torture(cfg TortureConfig) (TortureResult, error) {
	cfg.defaults()
	run := cfg.Run
	if run == nil {
		run = RunCampaign
	}
	mk := cfg.Make
	if mk == nil {
		mk = func(i int) Campaign { return MakeCampaign(cfg, i) }
	}
	window := cfg.Parallel * reorderWindowPerWorker

	var (
		mu       sync.Mutex
		space    = sync.NewCond(&mu)
		ring     = make([]fleetSlot, window)
		next     int  // lowest sequence number not yet drained
		draining bool // a drainer owns the in-order processing loop
		res      TortureResult
	)
	res.Campaigns = cfg.Campaigns

	stopping := func() bool {
		if cfg.Stop == nil {
			return false
		}
		select {
		case <-cfg.Stop:
			return true
		default:
			return false
		}
	}

	// process consumes one drained slot: emit its checkpoint record, then
	// fold the outcome into the aggregates. Only ever called by the
	// single active drainer, in strict index order — that is what makes
	// summaries and record streams byte-identical across worker counts.
	process := func(s *fleetSlot) {
		if s.skipped {
			res.Skipped++
			return
		}
		if s.hasRec {
			err := s.encErr
			if err == nil {
				err = cfg.Sink.Write(s.rec, s.enc)
			}
			if err != nil && cfg.OnSinkError != nil {
				cfg.OnSinkError(err)
			}
		}
		o := s.out
		if o.Infra {
			res.Infra = append(res.Infra, TortureFailure{Outcome: o})
			return
		}
		if o.Err != nil {
			// A campaign that cannot even run — config error or audit
			// violation — fails the whole sweep.
			res.Failures = append(res.Failures, TortureFailure{Outcome: o})
			return
		}
		if o.MidRun {
			res.MidRunCrashes++
		}
		res.Commits += o.Commits
		res.RecoveredTx += o.Report.CommittedTx
		res.RedoApplied += o.Report.RedoApplied
		res.UndoApplied += o.Report.UndoApplied
		res.Quarantined += o.Report.Quarantined
		res.Torn += o.Torn
		res.Dropped += o.Dropped
		res.Restarts += o.Restarts
		if o.Avail != nil {
			if res.Avail == nil {
				res.Avail = make(map[string]*AvailSummary)
			}
			mergeAvail(res.Avail, o.Avail)
		}
		if len(o.Mismatches) > 0 {
			res.Failures = append(res.Failures, TortureFailure{Outcome: o})
		}
	}

	// deliver parks seq's slot in the reorder window, then drains every
	// contiguous completed slot from `next` upward. One drainer at a time
	// owns the loop (combining pattern): a deliverer that finds a drain
	// in progress just deposits and leaves, and the active drainer
	// re-checks for newly contiguous work before retiring — no slot is
	// ever stranded. Slot storage is recycled as it drains, so the window
	// (not the campaign count) bounds retained outcomes.
	deliver := func(seq int, s fleetSlot) {
		mu.Lock()
		s.done = true
		ring[seq%window] = s
		if draining {
			mu.Unlock()
			return
		}
		draining = true
		batch := make([]fleetSlot, 0, window)
		for {
			batch = batch[:0]
			for next < cfg.Campaigns && ring[next%window].done {
				batch = append(batch, ring[next%window])
				ring[next%window] = fleetSlot{}
				next++
			}
			if len(batch) == 0 {
				draining = false
				mu.Unlock()
				return
			}
			space.Broadcast()
			mu.Unlock()
			for i := range batch {
				process(&batch[i])
			}
			mu.Lock()
		}
	}

	execOne := func(seq int, rec *machine.Recycler) {
		if stopping() {
			deliver(seq, fleetSlot{skipped: true})
			return
		}
		idx := cfg.Offset + seq
		c := mk(idx)
		c.Spec.Recycle = rec
		var out CampaignOutcome
		for attempt := 0; ; attempt++ {
			out = runContained(run, c, cfg.WallBudget)
			out.Attempts = attempt + 1
			if !IsInfra(out.Err) || attempt >= cfg.Retries {
				break
			}
			time.Sleep(RetryDelay(cfg.Seed, idx, attempt, cfg.Backoff))
		}
		out.Infra = IsInfra(out.Err)
		s := fleetSlot{out: out}
		if cfg.Sink != nil {
			// Record construction and sink encoding (JSON marshal,
			// index-row building) run here, on the worker, concurrently
			// across the fleet; the drain serializes only the actual write
			// (see BenchmarkFleetEmit).
			s.rec = OutcomeRecord(out)
			s.hasRec = true
			s.enc, s.encErr = cfg.Sink.Encode(s.rec)
		}
		deliver(seq, s)
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker recycler: campaigns on this worker reuse one
			// another's machine state (reset in place), and no other
			// worker touches it, so reuse adds no cross-worker coupling.
			rec := machine.NewRecycler()
			for seq := range work {
				execOne(seq, rec)
			}
		}()
	}

	// The dispatcher (this goroutine) admits index i only once the drain
	// has advanced past i-window, bounding the reorder window; resumed
	// and stop-skipped campaigns bypass the workers but flow through the
	// same window so ordering and memory bounds hold uniformly.
	var resumeErr error
	for i := 0; i < cfg.Campaigns; i++ {
		mu.Lock()
		for i >= next+window {
			space.Wait()
		}
		mu.Unlock()
		idx := cfg.Offset + i
		if rec, ok := cfg.Resume[idx]; ok {
			out, err := rec.Outcome()
			if err != nil {
				// Fail fast: a corrupt resume record invalidates the whole
				// sweep — stop dispatching, let in-flight campaigns drain,
				// and surface the error instead of burning the remaining
				// campaign budget first.
				resumeErr = fmt.Errorf("torture: resume record %d: %w", idx, err)
				break
			}
			deliver(i, fleetSlot{out: out})
			continue
		}
		if stopping() {
			deliver(i, fleetSlot{skipped: true})
			continue
		}
		work <- i
	}
	close(work)
	wg.Wait()
	if resumeErr != nil {
		return TortureResult{}, resumeErr
	}
	res.Interrupted = res.Skipped > 0
	if cfg.Shrink {
		fails := func(tc Campaign) bool {
			// A trial that panics fails; an infra kill does not (keeping
			// a reduction on a timeout would be wrong).
			out := runContained(run, tc, cfg.WallBudget)
			return !IsInfra(out.Err) && out.Failed()
		}
		for i := range res.Failures {
			o := res.Failures[i].Outcome
			if o.Err != nil && o.Invariant == "" {
				continue // config errors and stray panics don't shrink
			}
			s := shrinkWith(o.Campaign, fails)
			res.Failures[i].Shrunk = &s
		}
	}
	if cfg.TraceDir != "" && len(res.Failures) > 0 {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return res, fmt.Errorf("torture: trace dir: %w", err)
		}
		for i := range res.Failures {
			res.Failures[i].TracePath = traceCampaign(cfg, run, res.Failures[i].Outcome.Campaign)
		}
	}
	return res, nil
}

// traceCampaign re-executes one failing campaign with a Chrome-trace
// telemetry sink attached and returns the written trace path ("" when
// tracing could not complete). The re-run is deterministic — same
// campaign, same schedule — so the recording shows the same failure;
// it stays panic-contained, and a violation mid-run simply truncates
// the trace at the crash, which is exactly the interesting tail.
func traceCampaign(cfg TortureConfig, run func(Campaign) CampaignOutcome, c Campaign) string {
	path := filepath.Join(cfg.TraceDir, fmt.Sprintf("campaign-%d.trace.json", c.Index))
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	ct := telemetry.NewChromeTrace(f)
	c.Spec.Telemetry = telemetry.NewRecorder(ct)
	out := runContained(run, c, cfg.WallBudget)
	if out.TimedOut {
		// The abandoned goroutine may still be writing; closing the
		// trace under it would race. Leave the partial file behind but
		// don't advertise it.
		return ""
	}
	if err := ct.Close(); err != nil {
		f.Close()
		return ""
	}
	if err := f.Close(); err != nil {
		return ""
	}
	return path
}
