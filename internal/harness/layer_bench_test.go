package harness

import (
	"testing"

	"silo/internal/fault"
	"silo/internal/machine"
	"silo/internal/recovery"
)

// Per-layer microbenchmarks for the fixed costs of one torture campaign:
// building a machine and running workload Setup, the crash itself, a
// recovery pass, and the campaign's whole post-crash half. Each uses the fleet's default campaign shape (2 cores,
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
// replay — over a machine crashed mid-run. The pass writes only the data
// region and a completed pass is idempotent, so every iteration does the
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

// BenchmarkCampaignRecovery times RecoverAndVerify, RunCampaign's
// post-crash half: recovery re-crashed every 7 applied words until a pass
// completes, the golden-shadow verification, the idempotence pass and the
// re-verify. The machine is fleet-shape, crashed mid-run with the auditor
// on, so every pass replays the crash audit's parse (Machine.CrashLog) as
// a fleet campaign does. A completed recovery is idempotent, so every
// iteration does the same work.
func BenchmarkCampaignRecovery(b *testing.B) {
	const every = 7
	spec := fleetSpec("MorLog", "TPCC", nil)
	spec.Fault = &fault.Plan{Trigger: fault.TriggerOp, AtOp: 900, RecrashEvery: every}
	m, _, err := RunMachine(spec)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Release()
	if !m.Crashed() || m.CrashLog() == nil {
		b.Fatal("fault plan did not crash the run under the audit")
	}
	var out CampaignOutcome
	RecoverAndVerify(m, every, recovery.Options{}, &out)
	if out.Failed() || out.Restarts == 0 {
		b.Fatalf("recovery: %d mismatches, %d restarts", len(out.Mismatches), out.Restarts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RecoverAndVerify(m, every, recovery.Options{}, &out)
	}
	b.ReportMetric(float64(out.Report.TotalRecords), "records/op")
	b.ReportMetric(float64(out.Restarts), "restarts/op")
}
