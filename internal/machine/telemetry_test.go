package machine

import (
	"testing"

	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/telemetry"
)

func benchMachine(tel *telemetry.Recorder) *Machine {
	return New(Config{
		Cores:        1,
		PM:           pm.DefaultConfig(),
		Cache:        cache.DefaultHierarchyConfig(),
		Design:       core.Factory(core.Options{}),
		DisableAudit: true,
		Telemetry:    tel,
	})
}

// nullSink counts events and discards them — the cheapest enabled sink,
// isolating the recorder's own fan-out cost in the benchmarks below.
type nullSink struct{ n int64 }

func (s *nullSink) Event(telemetry.Event) { s.n++ }

// steadyStores returns a closure performing one steady-state in-tx store:
// after warm-up the address hits L1 and its log entry merges in place, so
// the op exercises every probe site without touching a slow path.
func steadyStores(m *Machine) func() {
	now := sim.Cycle(0)
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, now)
	return func() {
		now += 10
		m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x4000, Data: mem.Word(now)}, now)
	}
}

// With audit off and no recorder attached, every probe site must cost one
// nil-check: the steady-state store path performs zero allocations. This
// is the regression gate for the "telemetry is free when disabled" claim.
func TestExecDisabledTelemetryZeroAlloc(t *testing.T) {
	m := benchMachine(nil)
	store := steadyStores(m)
	for i := 0; i < 64; i++ {
		store() // warm caches, log buffer, golden-shadow maps
	}
	if allocs := testing.AllocsPerRun(200, store); allocs != 0 {
		t.Fatalf("steady-state store path allocates %v per op with telemetry disabled, want 0", allocs)
	}
}

func BenchmarkExecStoreTelemetryOff(b *testing.B) {
	m := benchMachine(nil)
	store := steadyStores(m)
	for i := 0; i < 64; i++ {
		store()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store()
	}
}

func BenchmarkExecStoreTelemetryOn(b *testing.B) {
	sink := &nullSink{}
	m := benchMachine(telemetry.NewRecorder(sink))
	store := steadyStores(m)
	for i := 0; i < 64; i++ {
		store()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store()
	}
}

// Metrics reads the machine's own per-commit instruments: nothing before
// the first commit; after three commits the stall and latency histograms
// and the commit counter each count three, and the histogram readings are
// CommitHist's and TxHist's.
func TestCommitMetricsResolvedOnFirstCommit(t *testing.T) {
	m := benchMachine(telemetry.NewRecorder(&nullSink{}))
	now := sim.Cycle(0)
	m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x4000, Data: 1}, now)
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, now+10)
	if got := m.Metrics(); len(got) != 0 {
		t.Fatalf("metrics before the first commit: %+v", got)
	}
	for i := 0; i < 3; i++ {
		if i > 0 {
			now += 10
			m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, now)
		}
		now += 10
		m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x4000, Data: mem.Word(now)}, now)
		now += 10
		now += m.Exec(0, sim.Op{Kind: sim.OpTxEnd}, now).Latency
	}
	hist := func(name string, h *stats.Histogram) telemetry.MetricValue {
		return telemetry.MetricValue{
			Name: name, Kind: "histogram", Value: h.Count(), Max: h.Max(),
			P50: float64(h.Percentile(50)), P99: float64(h.Percentile(99)), Mean: h.Mean(),
		}
	}
	want := []telemetry.MetricValue{
		hist("commit-stall-cycles", m.CommitHist()),
		{Name: "commits", Kind: "counter", Value: 3},
		hist("tx-latency-cycles", m.TxHist()),
	}
	got := m.Metrics()
	if len(got) != len(want) {
		t.Fatalf("metrics = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || got[i].Value != 3 {
			t.Errorf("metrics[%d] = %+v, want %+v with value 3", i, got[i], want[i])
		}
	}
}
