package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"silo/internal/recovery"
)

// BenchmarkFleetEmit measures the fleet's record-emit path end to end
// with an instant executor, so the sink serialization (and the emit
// lock around it) dominates. The two-phase RecordSink keeps the JSON
// marshal outside that lock; with 8 workers the serialized section is
// just the buffered store append.
func BenchmarkFleetEmit(b *testing.B) {
	for _, bc := range []struct {
		name string
		sink func(b *testing.B) RecordSink
	}{
		{"nosink", func(*testing.B) RecordSink { return nil }},
		{"store", func(b *testing.B) RecordSink {
			sink, err := OpenCheckpointSink(filepath.Join(b.TempDir(), "bench.srs"))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { sink.Close() })
			return sink
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := fleetConfig(b.N, benchEmitRun)
			cfg.Parallel = 8
			if s := bc.sink(b); s != nil {
				cfg.Sink = s
				cfg.OnSinkError = func(err error) { b.Error(err) }
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Torture(cfg); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func benchEmitRun(c Campaign) CampaignOutcome {
	return CampaignOutcome{
		Campaign: c, MidRun: true, Commits: 398, Torn: 1,
		Report: recovery.Report{CommittedTx: 398, RedoApplied: 12, Complete: true},
	}
}

// benchCheckpoint writes an n-record checkpoint store once per
// benchmark binary and returns its path.
var benchCheckpoint = struct {
	once sync.Once
	path string
	err  error
}{}

func benchCheckpointPath(b *testing.B, n int) string {
	b.Helper()
	benchCheckpoint.once.Do(func() {
		dir, err := os.MkdirTemp("", "silo-bench-ckpt")
		if err != nil {
			benchCheckpoint.err = err
			return
		}
		benchCheckpoint.path = filepath.Join(dir, "sweep.srs")
		sink, err := OpenCheckpointSink(benchCheckpoint.path)
		if err != nil {
			benchCheckpoint.err = err
			return
		}
		for i := 0; i < n; i++ {
			r := Record{
				Index: i, Design: "Silo", Workload: "Btree", Cores: 4, Txns: 400,
				OpsPerTx: 8, Seed: int64(1000 + i), Plan: "crash@1743/tear2",
				Repro:  fmt.Sprintf("go run ./cmd/silo-torture -campaigns 1 -offset %d", i),
				MidRun: true, Commits: 398, Torn: 1, Restarts: 1, Attempts: 1,
				Report: recovery.Report{CommittedTx: 398, RedoApplied: 12, UndoApplied: 3, TotalRecords: 415, AppliedWrites: 3104, Complete: true},
			}
			enc, err := sink.Encode(r)
			if err == nil {
				err = sink.Write(r, enc)
			}
			if err != nil {
				benchCheckpoint.err = err
				return
			}
		}
		benchCheckpoint.err = sink.Close()
	})
	if benchCheckpoint.err != nil {
		b.Fatal(benchCheckpoint.err)
	}
	return benchCheckpoint.path
}

const benchCampaigns = 100_000

// BenchmarkSummarizeStore summarizes a 100k-campaign store from its
// mmap'd index alone.
func BenchmarkSummarizeStore(b *testing.B) {
	store := benchCheckpointPath(b, benchCampaigns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := SummarizeStore(store)
		if err != nil {
			b.Fatal(err)
		}
		if s.Campaigns != benchCampaigns {
			b.Fatal("bad summary")
		}
	}
}
