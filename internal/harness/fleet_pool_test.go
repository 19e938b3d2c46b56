package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// fleetStream runs a sweep and returns its summary plus the marshaled
// checkpoint record stream, exactly as a CheckpointSink would emit it.
func fleetStream(t *testing.T, cfg TortureConfig) (string, []string) {
	t.Helper()
	sink := &memSink{}
	cfg.Sink = sink
	cfg.OnSinkError = func(err error) { t.Error("sink error:", err) }
	res, err := Torture(cfg)
	if err != nil {
		t.Fatalf("torture (parallel=%d): %v", cfg.Parallel, err)
	}
	return res.Summary(), sink.encs
}

// The reorder window must make the sweep's observable output a pure
// function of the config: any worker count yields byte-identical
// summaries AND byte-identical checkpoint record streams. This is the
// contract that lets a resumed or re-parallelized fleet be diffed
// against any other run of the same config.
func TestFleetByteIdenticalAcrossParallel(t *testing.T) {
	base := TortureConfig{Seed: 4, Campaigns: 24, Txns: 8, Parallel: 1}
	refSum, refStream := fleetStream(t, base)
	for _, par := range []int{4, 8} {
		cfg := base
		cfg.Parallel = par
		sum, stream := fleetStream(t, cfg)
		if sum != refSum {
			t.Errorf("parallel=%d summary diverges from parallel=1:\n%s\nvs\n%s", par, sum, refSum)
		}
		if len(stream) != len(refStream) {
			t.Fatalf("parallel=%d emitted %d records, parallel=1 emitted %d", par, len(stream), len(refStream))
		}
		for i := range stream {
			if stream[i] != refStream[i] {
				t.Fatalf("parallel=%d record %d diverges:\n%s\nvs\n%s", par, i, stream[i], refStream[i])
			}
		}
	}
}

// A corrupt resume record must abort the sweep immediately — dispatching
// stops at the bad index instead of burning the remaining campaign
// budget before reporting the error.
func TestFleetResumeFailFast(t *testing.T) {
	var executed atomic.Int64
	cfg := TortureConfig{
		Seed: 4, Campaigns: 500, Txns: 8, Parallel: 2,
		Run: func(c Campaign) CampaignOutcome {
			executed.Add(1)
			return CampaignOutcome{Campaign: c, Commits: 1}
		},
		Resume: map[int]Record{
			2: {Index: 2, Design: "Silo", Workload: "Array", Plan: "not-a-plan"},
		},
	}
	res, err := Torture(cfg)
	if err == nil {
		t.Fatalf("corrupt resume record did not fail the sweep: %+v", res)
	}
	if n := executed.Load(); n > 16 {
		t.Errorf("sweep ran %d campaigns after the corrupt record at index 2; want fail-fast (≤16)", n)
	}
}

// A 200k-campaign sweep must hold O(Parallel + window) state, not
// O(Campaigns): the old fleet retained every CampaignOutcome until the
// end (~hundreds of bytes each — tens of MB at this scale); the
// streaming aggregator retires outcomes as the window drains. Live heap
// growth is sampled mid-sweep, after 100k campaigns have completed.
func TestFleetMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-campaign sweep")
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var once sync.Once
	var mid uint64
	cfg := TortureConfig{
		Seed: 4, Campaigns: 200_000, Txns: 8, Parallel: 4,
		Run: func(c Campaign) CampaignOutcome {
			if c.Index >= 100_000 {
				once.Do(func() {
					runtime.GC()
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					mid = m.HeapAlloc
				})
			}
			return CampaignOutcome{Campaign: c, Commits: 1}
		},
	}
	res, err := Torture(cfg)
	if err != nil {
		t.Fatalf("torture: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("sweep failed:\n%s", res.Summary())
	}
	if res.Commits != 200_000 {
		t.Fatalf("aggregation lost campaigns: %d commits, want 200000", res.Commits)
	}
	if mid == 0 {
		t.Fatal("mid-sweep heap sample never taken")
	}
	const budget = 32 << 20
	if growth := int64(mid) - int64(before.HeapAlloc); growth > budget {
		t.Errorf("live heap grew %d bytes mid-sweep (100k campaigns in flight); want O(Parallel+window) ≤ %d", growth, budget)
	}
}
