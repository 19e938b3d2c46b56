package machine

import (
	"testing"

	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
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

// The per-commit registry instruments are resolved on the first commit:
// a machine that has not committed registers none of them, and after
// three commits each of the three has seen exactly three samples.
func TestCommitMetricsResolvedOnFirstCommit(t *testing.T) {
	rec := telemetry.NewRecorder(&nullSink{})
	m := benchMachine(rec)
	commitMetrics := map[string]string{
		"commit-stall-cycles": "histogram",
		"tx-latency-cycles":   "histogram",
		"commits":             "counter",
	}
	now := sim.Cycle(0)
	m.Exec(0, sim.Op{Kind: sim.OpStore, Addr: 0x4000, Data: 1}, now)
	m.Exec(0, sim.Op{Kind: sim.OpTxBegin}, now+10)
	for _, v := range rec.Metrics().Snapshot() {
		if _, ok := commitMetrics[v.Name]; ok {
			t.Fatalf("%s registered before the first commit", v.Name)
		}
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
	seen := 0
	for _, v := range rec.Metrics().Snapshot() {
		if kind, ok := commitMetrics[v.Name]; ok {
			seen++
			if v.Kind != kind || v.Value != 3 {
				t.Errorf("%s = %s %d, want %s 3", v.Name, v.Kind, v.Value, kind)
			}
		}
	}
	if seen != len(commitMetrics) {
		t.Fatalf("snapshot holds %d of the %d commit instruments", seen, len(commitMetrics))
	}
}
