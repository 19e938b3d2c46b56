package main

import (
	"reflect"
	"testing"

	"silo/internal/cluster"
	"silo/internal/harness"
)

// records is a RecordSink that keeps every record written, in order.
type records []harness.Record

func (*records) Encode(harness.Record) ([]byte, error) { return nil, nil }
func (r *records) Write(rec harness.Record, _ []byte) error {
	*r = append(*r, rec)
	return nil
}

// TestReplayMatchesSweep rebuilds every campaign of a machine sweep and
// of a cluster sweep from its repro fields (design, workload, cores,
// txns, seed, plan) and replays it as -plan mode does: each replay's
// record equals the sweep's own.
func TestReplayMatchesSweep(t *testing.T) {
	for _, cfg := range []harness.TortureConfig{
		{Seed: 5, Campaigns: 6, Txns: 24, Parallel: 2},
		cluster.SweepConfig(harness.TortureConfig{Seed: 5, Campaigns: 6, Cores: 3, Txns: 300, Parallel: 2}, 0, cluster.ReplSync),
		cluster.SweepConfig(harness.TortureConfig{Seed: 9, Campaigns: 3, Cores: 3, Txns: 300, Parallel: 2}, 3, cluster.ReplAsync),
	} {
		var sweep records
		cfg.Sink = &sweep
		if _, err := harness.Torture(cfg); err != nil {
			t.Fatal(err)
		}
		for _, want := range sweep {
			flags := harness.TortureConfig{
				Designs: []string{want.Design}, Workloads: []string{want.Workload},
				Cores: want.Cores, Txns: want.Txns,
			}
			got, err := replay(flags, want.Plan, want.Seed)
			if err != nil {
				t.Fatal(err)
			}
			got.Index = want.Index
			if !reflect.DeepEqual(got, want) {
				t.Errorf("campaign %d (%s): replay\n%+v\nsweep\n%+v", want.Index, want.Repro, got, want)
			}
		}
	}
}
