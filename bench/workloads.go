package main

import (
	"sync"
	"time"

	"silo/internal/harness"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/telemetry"
)

// scale sizes every workload. fullScale is the benchmark; tinyScale is
// the smoke test's.
type scale struct {
	btreeTx       int // transactions per btree-silo sample
	tpccTxPerCore int // TPCC transactions per simulated core (tpcc-designs, tpcc-live)
	sweepTx       int // transactions per sweep-overflow sample
	fleetCold     int // campaigns in the fleet's discarded cold chunk
	fleetChunk    int // campaigns per measured fleet chunk
	inputs        int // distinct inputs a run cycles through
}

var (
	fullScale = scale{btreeTx: 25000, tpccTxPerCore: 1000, sweepTx: 2000, fleetCold: 500, fleetChunk: 1000, inputs: 4}
	tinyScale = scale{btreeTx: 400, tpccTxPerCore: 20, sweepTx: 24, fleetCold: 20, fleetChunk: 40, inputs: 2}
)

// workloadDef is one benchmark workload. Simulated workloads give the
// specs of input k (one per design); the fleet has none.
type workloadDef struct {
	name  string
	specs func(seed int64, sc scale, k int) []harness.Spec
	live  bool // run through harness.ControlledRun with a LiveSink attached
}

// workloads are closed loops: each simulated core issues its next op when
// the previous one completes, and fleet workers pull the next campaign
// when they finish one. bench/README.md gives the reason for each.
var workloads = []workloadDef{
	{name: "btree-silo", specs: func(seed int64, sc scale, k int) []harness.Spec {
		return []harness.Spec{{Design: "Silo", Workload: "Btree", Cores: 4, Txns: sc.btreeTx,
			Seed: inputSeed(seed, k), DisableAudit: true}}
	}},
	{name: "tpcc-designs", specs: tpccSpecs(harness.DesignNames())},
	{name: "sweep-overflow", specs: func(seed int64, sc scale, k int) []harness.Spec {
		return []harness.Spec{{Design: "Silo", Workload: "Sweep320", Cores: 4, Txns: sc.sweepTx,
			Seed: inputSeed(seed, k), DisableAudit: true}}
	}},
	{name: "tpcc-live", specs: tpccSpecs([]string{"Silo"}), live: true},
	{name: "fleet-torture"},
}

func tpccSpecs(designs []string) func(int64, scale, int) []harness.Spec {
	return func(seed int64, sc scale, k int) []harness.Spec {
		out := make([]harness.Spec, len(designs))
		for i, d := range designs {
			out[i] = harness.Spec{Design: d, Workload: "TPCC", Cores: 8, Txns: 8 * sc.tpccTxPerCore,
				Seed: inputSeed(seed, k), DisableAudit: true}
		}
		return out
	}
}

// inputSeed derives input k of a run from the run's seed.
func inputSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sample is one simulated run and the host time of each of its stages.
type sample struct {
	run            stats.Run
	fields         fields
	commit, tx     stats.Histogram
	build, execute time.Duration
	collect        time.Duration // zero on the live path, where Execute collects
	events, drops  uint64        // live path only
}

func (s sample) simOps() int64 { return s.run.Loads + s.run.Stores + 2*s.run.Transactions }

// runPlain builds, runs and collects one spec the way harness.RunMachine
// does, timing each public call.
func runPlain(spec harness.Spec, sp *spanLog, parent int) (sample, error) {
	var s sample
	t0 := time.Now()
	m, wl, err := harness.Build(spec)
	if err != nil {
		return s, err
	}
	defer m.Release()
	t1 := time.Now()
	per := spec.Txns / spec.Cores
	streams := make([]sim.OpStream, spec.Cores)
	for c := range streams {
		streams[c] = wl.Stream(c, per, sim.CoreRand(spec.Seed, c))
	}
	m.Engine(spec.Seed).RunStreams(streams)
	t2 := time.Now()
	s.run = m.CollectStats(spec.Design, spec.Workload)
	t3 := time.Now()
	s.commit, s.tx = *m.CommitHist(), *m.TxHist()
	s.fields = sampleFields(s.run, &s.commit, &s.tx)
	s.build, s.execute, s.collect = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	sp.add("build", parent, t0, t1)
	sp.add("execute", parent, t1, t2)
	sp.add("collect", parent, t2, t3)
	return s, nil
}

// runLive runs one spec the way silo-serve does, minus HTTP: audit on, a
// LiveSink drained by one subscriber goroutine, unpaced, through
// harness.ControlledRun.
func runLive(spec harness.Spec, sp *spanLog, parent int) (sample, error) {
	var s sample
	sink := telemetry.NewLiveSink(0)
	spec.Telemetry = telemetry.NewRecorder(sink)
	spec.DisableAudit = false
	t0 := time.Now()
	cr, err := harness.NewControlledRun(spec)
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	sub := sink.Subscribe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		drain(sub)
	}()
	run, err := cr.Execute()
	t2 := time.Now()
	sink.Close()
	wg.Wait()
	sub.Cancel()
	m := cr.Machine()
	defer m.Release()
	if err != nil {
		return s, err
	}
	s.run = run
	s.commit, s.tx = *m.CommitHist(), *m.TxHist()
	s.fields = sampleFields(s.run, &s.commit, &s.tx)
	s.build, s.execute = t1.Sub(t0), t2.Sub(t1)
	s.events, s.drops = sink.Seq(), sub.Drops()
	sp.add("build", parent, t0, t1)
	sp.add("execute", parent, t1, t2)
	return s, nil
}

// drain reads sub until its sink closes, Poll-then-wait as LiveSub
// documents.
func drain(sub *telemetry.LiveSub) {
	buf := make([]telemetry.Event, 1024)
	for {
		n, _, open := sub.Poll(buf)
		if !open {
			return
		}
		if n == 0 {
			<-sub.Ready()
		}
	}
}
