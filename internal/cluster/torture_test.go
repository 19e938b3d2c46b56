package cluster

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"silo/internal/harness"
	"silo/internal/resultstore"
)

// Scenario must be a pure function of the campaign: the fleet's resume
// and shrink machinery both depend on re-deriving the identical run.
func TestScenarioDeterministic(t *testing.T) {
	base := harness.TortureConfig{Seed: 5, Campaigns: 8, Cores: 3, Txns: 200,
		Workloads: []string{"ClusterKV"}}
	for i := 0; i < 8; i++ {
		c := harness.MakeCampaign(base, i)
		a, b := Scenario(c), Scenario(c)
		pa, pb := a.Plan, b.Plan
		a.Plan, b.Plan = nil, nil
		if a != b {
			t.Fatalf("campaign %d: configs differ:\n%+v\n%+v", i, a, b)
		}
		if pa.String() != pb.String() {
			t.Fatalf("campaign %d: plans differ: %s vs %s", i, pa, pb)
		}
		if a.Nodes != 3 || a.Requests != 200 {
			t.Fatalf("campaign %d: spec shape not honored: %+v", i, a)
		}
	}
}

// A small sweep on the hardened fleet: every campaign must verify clean
// (zero divergences across both verdicts), with real crashes happening.
func TestClusterTortureSweep(t *testing.T) {
	res, err := harness.Torture(SweepConfig(harness.TortureConfig{
		Seed: 77, Campaigns: 12, Cores: 3, Txns: 150, Parallel: 2,
	}, 0, ReplSync))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Infra) != 0 {
		t.Fatalf("infra failures: %s", res.Summary())
	}
	if !res.Ok() {
		t.Fatalf("sweep failed:\n%s", res.Summary())
	}
	if res.MidRunCrashes == 0 {
		t.Fatal("no campaign crashed a node; the sweep proved nothing")
	}
	if res.Commits == 0 {
		t.Fatal("no commits across the sweep")
	}
}

// stopAfter passes records on to a store and closes stop once n were
// written: a sweep interrupted after n records.
type stopAfter struct {
	harness.SweepStore
	n    int
	stop chan struct{}
}

func (s *stopAfter) Write(r harness.Record, enc []byte) error {
	if s.n--; s.n == 0 {
		close(s.stop)
	}
	return s.SweepStore.Write(r, enc)
}

// sweepStore runs cfg through the sweep session silo-cluster runs,
// with its store at path: resuming from path first when resume is set,
// and stopping after `after` fresh records when positive. It returns
// the result and the store's record stream: its payloads, one per
// line, in append order.
func sweepStore(t *testing.T, cfg harness.TortureConfig, path string, resume bool, after int) (harness.TortureResult, []byte) {
	t.Helper()
	from := ""
	if resume {
		from = path
	}
	s := harness.StoreSweep("silo-cluster", cfg, path, from)
	want := 0
	if after > 0 {
		stop := make(chan struct{})
		s.Config.Stop = stop
		s.Open = func() (harness.SweepStore, error) {
			st, err := harness.OpenCheckpointSink(path)
			return &stopAfter{SweepStore: st, n: after, stop: stop}, err
		}
		want = 130
	}
	var stderr bytes.Buffer
	res, code := s.Run(io.Discard, &stderr)
	if code != want || strings.Contains(stderr.String(), "writing record") {
		t.Fatalf("sweep exit %d, want %d; stderr:\n%s", code, want, &stderr)
	}
	st, err := resultstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var stream bytes.Buffer
	for i := 0; i < st.Count(); i++ {
		p, err := st.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(p)
		stream.WriteByte('\n')
	}
	return res, stream.Bytes()
}

// interruptAndResume stops a sweep after two records, resumes it from
// its store into the same path, and returns the resumed result and the
// final record stream.
func interruptAndResume(t *testing.T, cfg harness.TortureConfig, path string) (harness.TortureResult, []byte) {
	t.Helper()
	part, _ := sweepStore(t, cfg, path, false, 2)
	if !part.Interrupted {
		t.Fatal("stop did not interrupt the sweep")
	}
	recs, err := harness.LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("partial store has %d records, want 2", len(recs))
	}
	resumed, stream := sweepStore(t, cfg, path, true, 0)
	if resumed.Interrupted {
		t.Fatal("resumed sweep still interrupted")
	}
	return resumed, stream
}

// An interrupted cluster sweep resumed from its checkpoint store must
// finish with the byte-identical record stream of an uninterrupted run.
func TestClusterSweepResumeByteIdentical(t *testing.T) {
	base := SweepConfig(harness.TortureConfig{Seed: 31, Campaigns: 6, Cores: 3, Txns: 120, Parallel: 1}, 0, ReplSync)
	dir := t.TempDir()

	full, baseline := sweepStore(t, base, filepath.Join(dir, "baseline.srs"), false, 0)
	if !full.Ok() || len(full.Infra) != 0 {
		t.Fatalf("baseline sweep unclean:\n%s", full.Summary())
	}
	resumed, stream := interruptAndResume(t, base, filepath.Join(dir, "interrupted.srs"))
	if !bytes.Equal(stream, baseline) {
		t.Errorf("resumed stream differs from baseline:\n%s\nvs\n%s", stream, baseline)
	}
	if full.Summary() != resumed.Summary() {
		t.Errorf("summaries differ:\n%s\nvs\n%s", full.Summary(), resumed.Summary())
	}
}

// The deterministic-replay guard at replication scope: a forced-R=3
// sync sweep must leave a byte-identical record stream on a second run
// and through an interrupt/resume cycle, and its summary must carry the
// availability breakdown.
func TestClusterReplicatedSweepByteIdentical(t *testing.T) {
	base := SweepConfig(harness.TortureConfig{Seed: 93, Campaigns: 6, Cores: 4, Txns: 150, Parallel: 1}, 3, ReplSync)
	dir := t.TempDir()

	resA, first := sweepStore(t, base, filepath.Join(dir, "first.srs"), false, 0)
	resB, second := sweepStore(t, base, filepath.Join(dir, "second.srs"), false, 0)
	if !resA.Ok() || len(resA.Infra) != 0 {
		t.Fatalf("replicated sweep unclean:\n%s", resA.Summary())
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two identical replicated sweeps wrote different streams:\n%s\nvs\n%s", first, second)
	}
	if resA.Summary() != resB.Summary() {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", resA.Summary(), resB.Summary())
	}
	if !strings.Contains(resA.Summary(), "r3/sync") {
		t.Fatalf("summary lacks the replication availability breakdown:\n%s", resA.Summary())
	}
	if a := resA.Avail["r3/sync"]; a == nil || a.AckedLost != 0 {
		t.Fatalf("r3/sync breakdown missing or lossy: %+v", a)
	}

	resumed, stream := interruptAndResume(t, base, filepath.Join(dir, "interrupted.srs"))
	if !bytes.Equal(stream, first) {
		t.Errorf("resumed replicated stream differs from baseline:\n%s\nvs\n%s", stream, first)
	}
	if resA.Summary() != resumed.Summary() {
		t.Errorf("resumed summary differs:\n%s\nvs\n%s", resA.Summary(), resumed.Summary())
	}
}

// Forced replication must ride the record stream itself: a resumed
// record re-derives the identical campaign config, replica count
// included.
func TestScenarioReplicationFromWorkloadName(t *testing.T) {
	cfgT := harness.TortureConfig{Seed: 11, Campaigns: 4, Cores: 4, Txns: 100,
		Workloads: []string{replWorkload(2, ReplAsync)}}
	for i := 0; i < 4; i++ {
		cfg := Scenario(harness.MakeCampaign(cfgT, i))
		if cfg.Replicas != 2 || cfg.Replication != ReplAsync {
			t.Fatalf("campaign %d: got R=%d mode=%v, want forced 2/async", i, cfg.Replicas, cfg.Replication)
		}
	}
	// Bare name: seed-derived R in [1,3], sync only.
	cfgT.Workloads = []string{"ClusterKV"}
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		cfg := Scenario(harness.MakeCampaign(cfgT, i))
		if cfg.Replicas < 1 || cfg.Replicas > 3 {
			t.Fatalf("campaign %d: derived R=%d out of [1,3]", i, cfg.Replicas)
		}
		if cfg.Replication != ReplSync {
			t.Fatalf("campaign %d: derived mode %v, want sync-only sweeps", i, cfg.Replication)
		}
		seen[cfg.Replicas] = true
	}
	if len(seen) < 2 {
		t.Fatalf("seed-derived R never varied: %v", seen)
	}
}
