package explore

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"silo/internal/harness"
)

func testGrid() Grid {
	g := Grid{
		Workloads: []string{"Array", "Hash"},
		LogBuf:    []int{10, 20},
		BufLine:   []int{64, 256},
		WPQ:       []int{16},
		Txns:      8,
		Seed:      3,
	}
	if err := g.Normalize(); err != nil {
		panic(err)
	}
	return g
}

// Every index must decode to a unique point, and the mapping must be a
// pure function of the grid (resume and sharding depend on it).
func TestGridPointDecode(t *testing.T) {
	g := testGrid()
	if got, want := g.Size(), 8; got != want {
		t.Fatalf("grid size = %d, want %d", got, want)
	}
	seen := map[Point]int{}
	for i := 0; i < g.Size(); i++ {
		p := g.Point(i)
		if prev, dup := seen[p]; dup {
			t.Fatalf("points %d and %d decode identically: %+v", prev, i, p)
		}
		seen[p] = i
		if p2 := g.Point(i); p2 != p {
			t.Fatalf("point %d not stable: %+v vs %+v", i, p, p2)
		}
		c := g.Campaign(i)
		if c.Index != i || c.Spec.Design != p.Design || c.Spec.Workload != p.Workload ||
			c.Spec.LogBufEntries != p.LogBuf || c.Spec.Cores != p.Cores {
			t.Fatalf("campaign %d does not match its point: %+v vs %+v", i, c.Spec, p)
		}
	}
}

func TestParseCacheGeom(t *testing.T) {
	g, err := ParseCacheGeom("32/256/8192")
	if err != nil || g != (CacheGeom{32, 256, 8192}) {
		t.Fatalf("ParseCacheGeom = %+v, %v", g, err)
	}
	for _, bad := range []string{"", "32", "32/256", "a/b/c", "32/0/8192", "32/256/8192/1"} {
		if _, err := ParseCacheGeom(bad); err == nil {
			t.Errorf("ParseCacheGeom(%q) accepted", bad)
		}
	}
}

// Explorer metrics must survive the record round-trip (JSON and
// outcome reconstruction) — resume aggregates depend on it.
func TestExploreMetricsRoundTrip(t *testing.T) {
	g := testGrid()
	out := g.RunPoint(g.Campaign(3))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Explore == nil || out.Explore.Throughput <= 0 {
		t.Fatalf("point measurement missing: %+v", out.Explore)
	}
	rec := harness.OutcomeRecord(out)
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back harness.Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	o2, err := back.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if o2.Explore == nil || *o2.Explore != *out.Explore {
		t.Fatalf("metrics lost in round-trip:\nwant %+v\ngot  %+v", out.Explore, o2.Explore)
	}
}

func metricRec(idx int, thr float64, media int64, uj float64) harness.Record {
	return harness.Record{
		Index: idx, Design: "Silo", Workload: "Array", Cores: 2,
		Explore: &harness.ExploreMetrics{Throughput: thr, MediaWrites: media, EnergyMicroJ: uj},
	}
}

func TestFrontier(t *testing.T) {
	recs := []harness.Record{
		metricRec(0, 10, 100, 5),  // dominated by 1 (worse on all axes)
		metricRec(1, 20, 50, 4),   // frontier
		metricRec(2, 30, 80, 4),   // frontier: fastest
		metricRec(3, 5, 40, 3),    // frontier: cheapest writes+energy
		metricRec(4, 20, 50, 4.5), // dominated by 1 (same but more energy)
		{Index: 5, Err: "boom", Explore: &harness.ExploreMetrics{Throughput: 99}}, // errored: ignored
		{Index: 6}, // no metrics: ignored
	}
	front := Frontier(recs)
	want := []int{2, 1, 3} // descending throughput
	if len(front) != len(want) {
		t.Fatalf("frontier = %d points, want %d: %+v", len(front), len(want), front)
	}
	for i, r := range front {
		if r.Index != want[i] {
			t.Fatalf("frontier[%d] = point %d, want %d", i, r.Index, want[i])
		}
	}
}

// A sharded sweep, merged, must be indistinguishable from a
// straight-through single-store sweep: byte-identical summaries and
// byte-identical Pareto reports. This is the satellite contract behind
// silo-report -merge.
func TestShardedSweepMergesByteIdentical(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()

	runSweep := func(sink harness.RecordSink) harness.TortureResult {
		t.Helper()
		res, err := harness.Torture(harness.TortureConfig{
			Seed: g.Seed, Campaigns: g.Size(), Parallel: 2,
			Make: g.Campaign, Run: g.RunPoint, Sink: sink,
			OnSinkError: func(err error) { t.Errorf("sink: %v", err) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	single := filepath.Join(dir, "single.srs")
	s1, err := harness.OpenCheckpointSink(single)
	if err != nil {
		t.Fatal(err)
	}
	runSweep(s1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	base := filepath.Join(dir, "grid.srs")
	s2, err := OpenShardedSink(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	runSweep(s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(dir, "merged.srs")
	n, err := harness.MergeStores(merged, ShardPaths(base, 3))
	if err != nil {
		t.Fatal(err)
	}
	if n != g.Size() {
		t.Fatalf("merge wrote %d records, want %d", n, g.Size())
	}

	sum1, err := harness.SummarizeStore(single)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := harness.SummarizeStore(merged)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sum1.String()+sum1.Table().String(), sum2.String()+sum2.Table().String(); a != b {
		t.Errorf("merged summary diverges from single-store run:\n%s\nvs\n%s", b, a)
	}

	report := func(path string) string {
		t.Helper()
		recs, err := harness.LoadRecords(path)
		if err != nil {
			t.Fatal(err)
		}
		flat := make([]harness.Record, 0, len(recs))
		for _, r := range recs {
			flat = append(flat, r)
		}
		return Report(flat)
	}
	if a, b := report(single), report(merged); a != b {
		t.Errorf("merged Pareto report diverges from single-store run:\n%s\nvs\n%s", b, a)
	}

	// Resume from the shards: every point is already measured, so the
	// fleet re-executes nothing and aggregates identically.
	recs, err := LoadShards(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != g.Size() {
		t.Fatalf("LoadShards = %d records, want %d", len(recs), g.Size())
	}
	res, err := harness.Torture(harness.TortureConfig{
		Seed: g.Seed, Campaigns: g.Size(), Parallel: 2,
		Make: g.Campaign, Resume: recs,
		Run: func(c harness.Campaign) harness.CampaignOutcome {
			t.Errorf("resume re-ran already-measured point %d", c.Index)
			return harness.CampaignOutcome{Campaign: c}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || !res.Ok() {
		t.Fatalf("resumed sweep lost its aggregates:\n%s", res.Summary())
	}
}

// Seed routes each resumed record to its index's shard and makes it
// durable there: a resumed sweep killed right after seeding must lose
// none of the records it was resumed from.
func TestShardedSinkSeedIsDurable(t *testing.T) {
	base := filepath.Join(t.TempDir(), "grid.srs")
	recs := make(map[int]harness.Record)
	for i := 0; i < 10; i++ {
		recs[i] = harness.Record{Index: i, Design: "Silo", Workload: "Array", Plan: "trigger=none", Attempts: 1}
	}
	sink, err := OpenShardedSink(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Seed(recs); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: only the shards' temp segments exist.
	for k, p := range ShardPaths(base, 3) {
		got, err := harness.LoadRecords(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i%3 != k {
				t.Errorf("shard %d holds record %d", k, i)
			}
		}
	}
	got, err := LoadShards(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("recovered %d of %d seeded records", len(got), len(recs))
	}
}
