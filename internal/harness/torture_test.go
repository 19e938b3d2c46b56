package harness

import (
	"bytes"
	"strings"
	"testing"

	"silo/internal/audit"
	"silo/internal/cache"
	"silo/internal/fault"
	"silo/internal/recovery"
)

func TestMakeCampaignDeterministic(t *testing.T) {
	cfg := TortureConfig{Seed: 9, Campaigns: 10}
	key := func(c Campaign) string {
		return c.Spec.Design + "/" + c.Spec.Workload + "/" + c.Plan.String()
	}
	for i := 0; i < 10; i++ {
		a, b := MakeCampaign(cfg, i), MakeCampaign(cfg, i)
		if key(a) != key(b) || a.Spec.Seed != b.Spec.Seed {
			t.Fatalf("campaign %d not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
	if key(MakeCampaign(cfg, 0)) == key(MakeCampaign(cfg, 1)) {
		t.Error("consecutive campaigns identical")
	}
}

func TestCampaignReproLine(t *testing.T) {
	c := MakeCampaign(TortureConfig{Seed: 3}, 7)
	r := c.Repro()
	for _, frag := range []string{"silo-torture", "-designs " + c.Spec.Design, "-plan"} {
		if !strings.Contains(r, frag) {
			t.Errorf("repro line missing %q: %s", frag, r)
		}
	}
	// The embedded plan must parse back to the same schedule.
	if _, err := fault.ParsePlan(c.Plan.String()); err != nil {
		t.Errorf("repro plan does not parse: %v", err)
	}
}

func TestRunCampaignDeterministic(t *testing.T) {
	c := MakeCampaign(TortureConfig{Seed: 21, Txns: 24}, 4)
	a, b := RunCampaign(c), RunCampaign(c)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Commits != b.Commits || a.MidRun != b.MidRun ||
		a.Report != b.Report || a.Torn != b.Torn || a.Dropped != b.Dropped {
		t.Errorf("campaign outcome not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestTortureSmoke: a small always-on sweep over every design and
// workload mix. Zero mismatches tolerated.
func TestTortureSmoke(t *testing.T) {
	res, err := Torture(TortureConfig{Seed: 2, Campaigns: 16, Txns: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("torture smoke failed:\n%s", res.Summary())
	}
	if res.Campaigns != 16 {
		t.Errorf("ran %d campaigns", res.Campaigns)
	}
}

// TestTortureAcceptance is the issue's acceptance bar: a 200-campaign
// sweep over {Base, FWB, MorLog, LAD, Silo} × {Array, Hash, TPCC} with
// crash triggers at op/cycle/commit-window/overflow granularity, torn
// crash flushes, and mid-recovery re-crashes — and ZERO post-recovery
// golden-shadow mismatches.
func TestTortureAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("200-campaign sweep")
	}
	res, err := Torture(TortureConfig{Seed: 1, Campaigns: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("atomic durability violated:\n%s", res.Summary())
	}
	// The sweep must actually exercise the adversarial machinery, not
	// pass vacuously.
	if res.MidRunCrashes == 0 {
		t.Error("no campaign crashed mid-run")
	}
	if res.Torn == 0 && res.Dropped == 0 {
		t.Error("no campaign tore or dropped a crash-flush record")
	}
	if res.Restarts == 0 {
		t.Error("no campaign re-crashed during recovery")
	}
	t.Logf("torture summary:\n%s", res.Summary())
}

// A seeded §III-D bug — evictions no longer set flush-bits — must be
// caught by fleet campaigns, not only by a hand-built unit machine. At
// Table II's geometry, and at these sizes with Table II's 8/8/16 ways,
// none of the first 300 such campaigns evicts a line whose entries are
// still buffered, so the sweep runs on the small 2-way 512 B/1 KB/2 KB
// hierarchy of the machine tests, where TPCC and RBtree campaigns do
// (10 of these 100). Which dirty lines leave
// mid-transaction is decided by each level's LRU victims, so this also
// guards the replacement order. Without the switch every campaign must
// pass.
func TestFleetCatchesSkippedFlushBit(t *testing.T) {
	cfg := TortureConfig{Seed: 5, Cores: 2, Txns: 200, Designs: []string{"Silo"},
		Workloads: []string{"Array", "Hash", "Queue", "RBtree", "Btree", "TPCC", "YCSB", "Sweep320"}}
	small := func(h *cache.HierarchyConfig) {
		h.L1 = cache.Config{Name: "L1", Size: 512, Ways: 2, Latency: 4}
		h.L2 = cache.Config{Name: "L2", Size: 1 << 10, Ways: 2, Latency: 12}
		h.L3 = cache.Config{Name: "L3", Size: 2 << 10, Ways: 2, Latency: 28}
	}
	caught := 0
	for i := 0; i < 100; i++ {
		c := MakeCampaign(cfg, i)
		c.Spec.CacheMod = small
		if out := RunCampaignContained(c); out.Failed() {
			t.Fatalf("campaign %d (%s) fails without the seeded bug: %v %v", i, c.Spec.Workload, out.Err, out.Mismatches)
		}
		c.Spec.SiloOpts.DebugSkipFlushBit = true
		out := RunCampaignContained(c)
		switch {
		case out.Invariant == audit.InvFlushBit:
			caught++
		case out.Failed():
			t.Fatalf("campaign %d (%s) with the seeded bug failed by %q, want %q: %v", i, c.Spec.Workload, out.Invariant, audit.InvFlushBit, out.Err)
		}
	}
	if caught == 0 {
		t.Fatal("no campaign caught the skipped flush-bit")
	}
	t.Logf("%d of 100 campaigns caught the skipped flush-bit", caught)
}

// TestRecoveryIdempotentAllDesigns crashes every design (including the
// extended baselines) mid-run with an overflowing write set — Sweep40
// writes 40 distinct words per transaction, far past the 20-entry
// on-chip buffer — then proves recovery is idempotent: a second full
// pass changes no transactional word.
func TestRecoveryIdempotentAllDesigns(t *testing.T) {
	for _, d := range ExtendedDesignNames() {
		d := d
		t.Run(d, func(t *testing.T) {
			plan := fault.Plan{Trigger: fault.TriggerOp, AtOp: 700, Seed: 3}
			spec := Spec{Design: d, Workload: "Sweep40", Cores: 2, Txns: 30, Seed: 3, Fault: &plan}
			m, _, err := RunMachine(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Crashed() {
				m.InjectCrash(m.Now())
			}
			recovery.Recover(m.Device(), m.Region())
			if bad, _ := VerifyRecovery(m); len(bad) != 0 {
				t.Fatalf("first recovery left %d mismatches: %v", len(bad), bad[:min(3, len(bad))])
			}
			words := m.WrittenWords()
			before := make(map[uint64]uint64, len(words))
			for _, a := range words {
				before[uint64(a)] = uint64(m.Device().PeekWord(a))
			}
			recovery.Recover(m.Device(), m.Region())
			for _, a := range words {
				if got := m.Device().PeekWord(a); uint64(got) != before[uint64(a)] {
					t.Fatalf("second recovery changed %v: %#x -> %#x", a, before[uint64(a)], uint64(got))
				}
			}
		})
	}
}

// TestCrashReplayDeterministic: the same Spec (seed included) under the
// same crash schedule yields byte-identical results — identical run
// stats AND an identical durable log region. This is what makes every
// torture repro line trustworthy.
func TestCrashReplayDeterministic(t *testing.T) {
	plan := fault.Plan{
		Trigger: fault.TriggerCommit, AfterCommits: 9,
		FlushBudget: 96, TearWords: true, Seed: 11,
	}
	run := func() ([]byte, int64) {
		p := plan
		spec := Spec{Design: "Silo", Workload: "Hash", Cores: 2, Txns: 40, Seed: 11, Fault: &p}
		m, _, err := RunMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Crashed() {
			m.InjectCrash(m.Now())
		}
		var log []byte
		region := m.Region()
		for tid := 0; tid < region.Threads(); tid++ {
			log = append(log, m.Device().Peek(region.AreaBase(tid), int(region.Used(tid)))...)
		}
		return log, m.Commits()
	}
	logA, commitsA := run()
	logB, commitsB := run()
	if commitsA != commitsB {
		t.Fatalf("commit counts differ: %d vs %d", commitsA, commitsB)
	}
	if !bytes.Equal(logA, logB) {
		t.Fatalf("durable log regions differ (%d vs %d bytes)", len(logA), len(logB))
	}
	if len(logA) == 0 {
		t.Fatal("no log bytes to compare")
	}
}
