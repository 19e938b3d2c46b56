package harness

import (
	"testing"

	"silo/internal/fault"
	"silo/internal/machine"
	"silo/internal/recovery"
)

// Per-layer microbenchmarks for the fixed costs of one torture campaign:
// building a machine and running workload Setup, the crash itself, and a
// recovery pass. Each uses the fleet's default campaign shape (2 cores,
// 48 transactions) and a machine.Recycler as fleet workers do, so a
// regression in one phase shows up here even when BenchmarkFleetThroughput
// averages it away.

// fleetSpec is one default-shape fleet campaign spec.
func fleetSpec(design, wl string, rec *machine.Recycler) Spec {
	return Spec{Design: design, Workload: wl, Cores: 2, Txns: 48, Seed: 3, Recycle: rec}
}

// BenchmarkWorkloadSetup times harness.Build — machine construction from
// pooled parts plus the workload's Setup pokes — and the Release that
// returns the parts clean.
func BenchmarkWorkloadSetup(b *testing.B) {
	for _, wl := range []string{"Array", "Hash", "TPCC"} {
		b.Run(wl, func(b *testing.B) {
			rec := machine.NewRecycler()
			spec := fleetSpec("Silo", wl, rec)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, _, err := Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
		})
	}
}

// BenchmarkInjectCrash times Machine.InjectCrash with the auditor on: the
// design's battery-backed flush, cache invalidation, and the
// conservation and reconstructibility audits over the written words.
// Building and running each machine is excluded.
func BenchmarkInjectCrash(b *testing.B) {
	rec := machine.NewRecycler()
	spec := fleetSpec("Silo", "TPCC", rec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _, err := RunMachine(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m.InjectCrash(m.Now())
		b.StopTimer()
		m.Release()
		b.StartTimer()
	}
}

// BenchmarkRecoverScan times one full recovery pass — the checked scan of
// every thread's log area (CRC and sequence check per record) plus
// replay — over a machine crashed mid-run. Recovery never mutates the
// log and a completed pass is idempotent, so every iteration does the
// same work.
func BenchmarkRecoverScan(b *testing.B) {
	spec := fleetSpec("MorLog", "TPCC", nil)
	spec.Fault = &fault.Plan{Trigger: fault.TriggerOp, AtOp: 900}
	m, _, err := RunMachine(spec)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Release()
	if !m.Crashed() {
		b.Fatal("fault plan did not crash the run")
	}
	rep := recovery.Recover(m.Device(), m.Region())
	if rep.TotalRecords == 0 {
		b.Fatal("crashed run left no log records to scan")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recovery.Recover(m.Device(), m.Region())
	}
	b.ReportMetric(float64(rep.TotalRecords), "records/op")
}
