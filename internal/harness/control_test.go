package harness

import (
	"strings"
	"testing"

	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// TestControlledRunMatchesRunMachine: with no crash or stop request,
// Execute walks the exact scheduling sequence of RunMachine — every run
// record field identical.
func TestControlledRunMatchesRunMachine(t *testing.T) {
	for _, design := range []string{"Silo", "Base", "FWB"} {
		spec := Spec{Design: design, Workload: "Btree", Cores: 2, Txns: 400, Seed: 7}
		_, want, err := RunMachine(spec)
		if err != nil {
			t.Fatalf("%s RunMachine: %v", design, err)
		}
		cr, err := NewControlledRun(spec)
		if err != nil {
			t.Fatalf("%s NewControlledRun: %v", design, err)
		}
		got, err := cr.Execute()
		if err != nil {
			t.Fatalf("%s Execute: %v", design, err)
		}
		if got != want {
			t.Errorf("%s: controlled run diverged:\n got %+v\nwant %+v", design, got, want)
		}
	}
}

// An overflowing unit must come back from Execute as an error, so the
// server hosting the run survives it.
func TestControlledRunReportsUnitOverflow(t *testing.T) {
	cr, err := NewControlledRun(overflowSpec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cr.Execute()
	if err == nil || !strings.Contains(err.Error(), "ops in one unit") {
		t.Fatalf("Execute err = %v, want the unit overflow", err)
	}
}

// TestLiveSinkDoesNotPerturbRun is the acceptance gate: a run with a
// LiveSink-backed recorder attached (subscriber lagging, ring lapping)
// must produce a byte-identical run record to a fully detached run.
func TestLiveSinkDoesNotPerturbRun(t *testing.T) {
	spec := Spec{Design: "Silo", Workload: "Hash", Cores: 2, Txns: 500, Seed: 11}
	want, err := Run(spec)
	if err != nil {
		t.Fatalf("detached run: %v", err)
	}

	sink := telemetry.NewLiveSink(64) // tiny ring: guaranteed to lap
	spec.Telemetry = telemetry.NewRecorder(sink)
	sub := sink.Subscribe() // never polled until the end: maximally lagged
	defer sub.Cancel()
	got, err := Run(spec)
	sink.Close()
	if err != nil {
		t.Fatalf("attached run: %v", err)
	}
	if got != want {
		t.Errorf("LiveSink perturbed the run:\n got %+v\nwant %+v", got, want)
	}
	if sink.Seq() == 0 {
		t.Fatal("LiveSink saw no events")
	}
	buf := make([]telemetry.Event, 64)
	n, dropped, _ := sub.Poll(buf)
	if n == 0 || dropped == 0 {
		t.Fatalf("expected a lagged subscriber to recover a full ring with drops, got n=%d dropped=%d", n, dropped)
	}
}

// BenchmarkRunTelemetry quantifies the serve overhead quoted in
// EXPERIMENTS.md: a full run with telemetry detached, with a
// LiveSink-backed recorder attached, attached with one goroutine
// draining it Poll-then-Ready (silo-serve's SSE loop and the benchmark's
// tpcc-live shape), and attached with a subscriber that never drains
// (the worst case — every ring lap drops events, and the engine must
// still not block).
func BenchmarkRunTelemetry(b *testing.B) {
	spec := Spec{Design: "Silo", Workload: "Btree", Cores: 2, Txns: 1000, Seed: 42, DisableAudit: true}
	b.Run("detached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("livesink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := spec
			s.Telemetry = telemetry.NewRecorder(telemetry.NewLiveSink(0))
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("livesink-drained", func(b *testing.B) {
		b.ReportAllocs()
		var drops, events uint64
		buf := make([]telemetry.Event, 1024)
		for i := 0; i < b.N; i++ {
			sink := telemetry.NewLiveSink(0)
			sub := sink.Subscribe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					n, _, open := sub.Poll(buf)
					if !open {
						return
					}
					if n == 0 {
						<-sub.Ready()
					}
				}
			}()
			s := spec
			s.Telemetry = telemetry.NewRecorder(sink)
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
			sink.Close()
			<-done
			drops += sub.Drops()
			events += sink.Seq()
			sub.Cancel()
		}
		if b.N > 0 {
			b.ReportMetric(float64(drops)/float64(b.N), "dropped/run")
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		}
	})
	b.Run("livesink-slow-consumer", func(b *testing.B) {
		b.ReportAllocs()
		var drops, events uint64
		for i := 0; i < b.N; i++ {
			sink := telemetry.NewLiveSink(1024)
			sub := sink.Subscribe() // subscribed, never polled until the end
			s := spec
			s.Telemetry = telemetry.NewRecorder(sink)
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
			sink.Close()
			buf := make([]telemetry.Event, 1024)
			_, d, _ := sub.Poll(buf)
			drops += d
			events += sink.Seq()
			sub.Cancel()
		}
		if b.N > 0 {
			b.ReportMetric(float64(drops)/float64(b.N), "dropped/run")
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		}
	})
}

// TestControlledRunCrashAndRecover drives the serve crash path at the
// harness level: request a crash mid-run, then replay the log region and
// check recovery completes.
func TestControlledRunCrashAndRecover(t *testing.T) {
	spec := Spec{Design: "Silo", Workload: "Queue", Cores: 2, Txns: 2000, Seed: 3}
	cr, err := NewControlledRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Request the crash from the tick hook a little way in, standing in
	// for the serve manager's cross-goroutine RequestCrash; it lands at
	// the next tick, step 320.
	ticks := 0
	cr.Tick = func(_ sim.Cycle) {
		ticks++
		if ticks == 5 {
			cr.RequestCrash()
		}
	}
	res, err := cr.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	mach := cr.Machine()
	if !mach.Crashed() {
		t.Fatal("machine did not crash")
	}
	if res.Transactions >= int64(spec.Txns) {
		t.Fatalf("crash landed after completion: %d tx", res.Transactions)
	}
	rep := recovery.Recover(mach.Device(), mach.Region())
	if rep.RedoApplied+rep.UndoApplied+rep.CommittedTx == 0 && res.Transactions > 0 {
		t.Errorf("recovery saw nothing: %+v (run %+v)", rep, res)
	}
}

// TestControlledRunStopUnwinds: RequestStop ends the run early without
// crash-recovery semantics, like the sim-cycle watchdog.
func TestControlledRunStopUnwinds(t *testing.T) {
	spec := Spec{Design: "Silo", Workload: "Btree", Cores: 2, Txns: 5000, Seed: 5}
	cr, err := NewControlledRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	cr.RequestStop() // before the first step: unwinds almost immediately
	res, err := cr.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Transactions >= int64(spec.Txns) {
		t.Fatalf("stop did not shorten the run: %d tx", res.Transactions)
	}
}
