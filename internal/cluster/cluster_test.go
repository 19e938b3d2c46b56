package cluster

import (
	"fmt"
	"testing"

	"silo/internal/fault"
	"silo/internal/pm"
	"silo/internal/sim"
)

func TestRingDeterministicAndTotal(t *testing.T) {
	a := NewRing(5, 16, 42)
	b := NewRing(5, 16, 42)
	counts := make([]int, 5)
	for k := uint64(0); k < 10_000; k++ {
		oa, ob := a.Owner(k), b.Owner(k)
		if oa != ob {
			t.Fatalf("key %d: owner %d vs %d across identical rings", k, oa, ob)
		}
		if oa < 0 || oa >= 5 {
			t.Fatalf("key %d: owner %d out of range", k, oa)
		}
		counts[oa]++
	}
	for n, c := range counts {
		if c == 0 {
			t.Fatalf("node %d owns no keys (counts %v)", n, counts)
		}
	}
}

func TestClusterFaultFree(t *testing.T) {
	res := Run(Config{Seed: 1, Design: "Silo", Nodes: 3, Requests: 300})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if len(res.Divergences) != 0 {
		t.Fatalf("divergences on a fault-free run: %v", res.Divergences)
	}
	if res.Generated != 300 {
		t.Fatalf("generated %d want 300", res.Generated)
	}
	if res.Acked == 0 {
		t.Fatal("no requests acked")
	}
	if res.Crashes != 0 || len(res.Windows) != 0 {
		t.Fatalf("crashes %d windows %d on a fault-free run", res.Crashes, len(res.Windows))
	}
	if res.Acked+res.Failed != res.Generated {
		t.Fatalf("acked %d + failed %d != generated %d", res.Acked, res.Failed, res.Generated)
	}
	if res.CommittedPuts < res.AckedPuts {
		t.Fatalf("committed %d < acked puts %d: acks without commits", res.CommittedPuts, res.AckedPuts)
	}
}

func crashConfig(seed int64, design string) Config {
	cfg := Config{Seed: seed, Design: design, Nodes: 3, Requests: 400}
	horizon := cfg.LoadHorizon()
	cfg.Plan = &fault.ClusterPlan{
		Crashes: []fault.NodeCrash{{Node: 1, At: horizon / 3}},
		Node:    fault.Plan{FlushBudget: 256, TearWords: true, RecrashEvery: 8},
	}
	return cfg
}

func TestClusterNodeCrashRecoversUnderLoad(t *testing.T) {
	for _, design := range []string{"Silo", "Base", "FWB"} {
		t.Run(design, func(t *testing.T) {
			res := Run(crashConfig(7, design))
			if res.Err != nil {
				t.Fatalf("run: %v", res.Err)
			}
			if len(res.Divergences) != 0 {
				t.Fatalf("divergences: %v", res.Divergences)
			}
			if res.Crashes == 0 {
				t.Fatal("scheduled crash never fired")
			}
			if len(res.Windows) == 0 {
				t.Fatal("no crash windows recorded")
			}
			for i, w := range res.Windows {
				if !w.Closed {
					t.Errorf("window %d never closed: node %d down at %d", i, w.Node, w.DownAt)
				}
				if w.Width() <= 0 {
					t.Errorf("window %d has nonpositive width %d", i, w.Width())
				}
				if w.CommitsElsewhere == 0 {
					t.Errorf("window %d: no commits on surviving nodes", i)
				}
			}
			if res.Acked == 0 {
				t.Fatal("nothing acked despite surviving nodes")
			}
		})
	}
}

func TestClusterDeterministic(t *testing.T) {
	fp := func(r Result) string {
		return fmt.Sprintf("g=%d a=%d f=%d cp=%d to=%d sh=%d ff=%d rt=%d cr=%d w=%d p50=%d p99=%d fc=%d div=%d",
			r.Generated, r.Acked, r.Failed, r.CommittedPuts, r.Timeouts, r.Sheds,
			r.FastFails, r.Retries, r.Crashes, len(r.Windows),
			r.Latency.Percentile(50), r.Latency.Percentile(99), r.FinalCycle, len(r.Divergences))
	}
	a := Run(crashConfig(11, "Silo"))
	b := Run(crashConfig(11, "Silo"))
	if a.Err != nil || b.Err != nil {
		t.Fatalf("run: %v / %v", a.Err, b.Err)
	}
	if fp(a) != fp(b) {
		t.Fatalf("identical configs diverged:\n%s\n%s", fp(a), fp(b))
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}

func TestClusterCrashStorm(t *testing.T) {
	cfg := Config{Seed: 3, Design: "Silo", Nodes: 4, Requests: 500}
	horizon := cfg.LoadHorizon()
	cfg.Plan = &fault.ClusterPlan{
		Crashes: []fault.NodeCrash{
			{Node: 0, At: horizon / 4},
			{Node: 2, At: horizon/4 + 10_000},
			{Node: 0, At: horizon * 3 / 4}, // repeat offender
		},
		Node: fault.Plan{FlushBudget: 128, TearWords: true},
	}
	res := Run(cfg)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if len(res.Divergences) != 0 {
		t.Fatalf("divergences: %v", res.Divergences)
	}
	if res.Crashes < 3 {
		t.Fatalf("crashes %d want >= 3", res.Crashes)
	}
	if res.Acked == 0 {
		t.Fatal("storm silenced the whole cluster")
	}
}

func TestClusterDiurnalLoad(t *testing.T) {
	cfg := Config{Seed: 5, Design: "Silo", Nodes: 3, Requests: 400, DiurnalAmp: 0.6}
	cfg.DiurnalPeriod = cfg.LoadHorizon() / 2
	res := Run(cfg)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if len(res.Divergences) != 0 {
		t.Fatalf("divergences: %v", res.Divergences)
	}
	if res.Acked == 0 {
		t.Fatal("no acks under diurnal load")
	}
}

func TestClusterParsePlanRoundTrip(t *testing.T) {
	p := fault.ClusterPlan{
		Crashes: []fault.NodeCrash{{Node: 2, At: 12345}, {Node: 0, At: 99999}},
		Node:    fault.Plan{Trigger: fault.TriggerOp, AtOp: 7, FlushBudget: 64, TearWords: true, RecrashEvery: 4, Seed: 9},
	}
	got, err := fault.ParseClusterPlan(p.String())
	if err != nil {
		t.Fatalf("parse %q: %v", p.String(), err)
	}
	if got.String() != p.String() {
		t.Fatalf("round trip: %q -> %q", p.String(), got.String())
	}
	empty, err := fault.ParseClusterPlan("")
	if err != nil || empty.Active() {
		t.Fatalf("empty plan: %+v err %v", empty, err)
	}
}

func TestClusterUnavailabilityWindowFinite(t *testing.T) {
	res := Run(crashConfig(13, "Silo"))
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	for _, w := range res.Windows {
		if !w.Closed {
			t.Fatalf("window for node %d not closed", w.Node)
		}
		// A window must be bounded by detection + reboot + replay plus
		// queueing slack, far below the whole run.
		if w.Width() >= res.FinalCycle {
			t.Fatalf("window [%d,%d] spans the whole run (%d)", w.DownAt, w.ServingAt, res.FinalCycle)
		}
	}
	if res.Latency.Count() == 0 {
		t.Fatal("latency histogram empty")
	}
	if p50, p99 := res.Latency.Percentile(50), res.Latency.Percentile(99); p50 <= 0 || p99 < p50 {
		t.Fatalf("implausible percentiles p50=%d p99=%d", p50, p99)
	}
}

func TestClusterStepBudgetIsInfra(t *testing.T) {
	// A pathological config (tiny event budget) must surface as an
	// infra error, never a hang or a durability verdict.
	cfg := Config{Seed: 1, Nodes: 2, Requests: 100, MaxEvents: 10}
	res := Run(cfg)
	if res.Err == nil || !res.Infra {
		t.Fatalf("want infra error, got err=%v infra=%v", res.Err, res.Infra)
	}
}

var benchSink Result

func BenchmarkClusterSteadyState(b *testing.B) {
	cfg := Config{Seed: 9, Design: "Silo", Nodes: 3, Requests: 200, DisableAudit: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = Run(cfg)
		if benchSink.Err != nil {
			b.Fatal(benchSink.Err)
		}
	}
}

var _ = sim.Cycle(0)

// A node owns its PM device: every incarnation's machine runs over the
// same device, and releasing a machine (at each crash and when the
// cluster drains) never hands it to the machine pools, which would reset
// the media the next incarnation recovers from.
func TestClusterNodeKeepsDeviceAcrossIncarnations(t *testing.T) {
	c, err := New(crashConfig(7, "Silo"))
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*pm.Device, len(c.nodes))
	for i, n := range c.nodes {
		if n.m.Device() != n.dev {
			t.Fatalf("node %d: machine runs over %p, node owns %p", i, n.m.Device(), n.dev)
		}
		devs[i] = n.dev
	}
	res := c.Drive()
	if res.Err != nil || res.Crashes == 0 {
		t.Fatalf("run: err=%v crashes=%d; the test needs a crash", res.Err, res.Crashes)
	}
	for i, n := range c.nodes {
		if n.dev != devs[i] || n.m.Device() != devs[i] {
			t.Fatalf("node %d (incarnation %d) changed device", i, n.incarn)
		}
		if n.dev.Stats() == (pm.Stats{}) {
			t.Fatalf("node %d: device was reset after its last machine was released", i)
		}
	}
	if c.nodes[1].incarn == 0 {
		t.Fatal("crashed node 1 never rebooted")
	}
}

// A node that crashes, reboots and keeps serving answers each key it
// holds from its golden state: after every event, the rebooted
// incarnation's Machine.Peek (the value a program's load is checked
// against) equals the node's applied value, for keys written before the
// crash (now on the recovered media) and after it (in the new golden
// shadow) alike, and its executed Gets agree with the same map (no
// divergence).
func TestClusterRebootedNodePeeksGolden(t *testing.T) {
	for _, design := range []string{"Silo", "Base", "FWB"} {
		t.Run(design, func(t *testing.T) {
			c, err := New(crashConfig(7, design))
			if err != nil {
				t.Fatal(err)
			}
			n := c.nodes[1]
			var peeks int
			var servedAtReboot int64 = -1
			c.SetPacer(func(now sim.Cycle) {
				if n.incarn == 0 || n.state != nodeUp || c.released[n.id] {
					return
				}
				if servedAtReboot < 0 {
					servedAtReboot = n.served
				}
				for k, v := range n.kv {
					if got := uint64(n.m.Peek(0, c.keyAddr(k))); got != v {
						t.Fatalf("incarnation %d, cycle %d: peek of key %d = %d, applied %d", n.incarn, now, k, got, v)
					}
					peeks++
				}
			})
			res := c.Drive()
			if res.Err != nil || len(res.Divergences) != 0 {
				t.Fatalf("run: err=%v divergences=%v", res.Err, res.Divergences)
			}
			if servedAtReboot < 0 || n.served == servedAtReboot || peeks == 0 {
				t.Fatalf("node 1 never served after a reboot (served %d at reboot, %d at end, %d peeks)",
					servedAtReboot, n.served, peeks)
			}
		})
	}
}
