package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program measures, with the same units, directions and
// bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v\nprogram has %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v\nprogram has %+v", spec.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || len(spec.Command) < 2 || spec.Command[1] != "bench/run.sh" {
		t.Errorf("BENCHMARK.json command %v paths %v", spec.Command, spec.Paths)
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks the verdict, the behaviour lock, every BENCHMARK.json metric and
// the trace files.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			o := options{seed: defaultSeed, seconds: 0.4, sc: tinyScale, work: t.TempDir(), traceDir: t.TempDir(), out: &out}
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.correct, res.attempted, res.failed, out.String())
			}
			if w.specs != nil && (res.againstRef == 0 || res.repeats == 0) {
				t.Errorf("behaviour lock checked %d samples against references and %d repeats; want both > 0",
					res.againstRef, res.repeats)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				m, ok := res.rep.metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("metric %s: measured=%v unit %q, want unit %q", d.Name, ok, m.Unit, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if v := res.rep.metrics[d.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
			for _, f := range []string{w.name + ".spans.json", w.name + ".cpu.pprof"} {
				if _, err := os.Stat(filepath.Join(o.traceDir, f)); err != nil {
					t.Error(err)
				}
			}

			var buf bytes.Buffer
			if err := printResult(&buf, w.name, o.seed, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range last {
				keys = append(keys, k)
			}
			if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("result line keys %v", keys)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(perLayer) {
				t.Errorf("traced result line has %d metrics, want the %d per-layer ones", len(metrics), len(perLayer))
			}
		})
	}
}

// TestLock checks that a sample differing from the reference or from an
// earlier run of its spec is reported with the differing field.
func TestLock(t *testing.T) {
	l := &lock{refs: map[string]refEntry{"k": {Fields: fields{"Cycles": 10, "Loads": 3}}}, seen: map[string]fields{}}
	if bad := l.check("k", fields{"Cycles": 10, "Loads": 3}); len(bad) != 0 {
		t.Fatalf("matching sample reported %v", bad)
	}
	bad := l.check("k", fields{"Cycles": 11, "Loads": 3})
	if len(bad) != 2 || !strings.Contains(bad[0], "Cycles got=11 want=10") || !strings.Contains(bad[1], "earlier run") {
		t.Errorf("drift reported as %v", bad)
	}
	if bad := l.check("other", fields{"Cycles": 1}); len(bad) != 0 {
		t.Errorf("a spec without reference failed on first sight: %v", bad)
	}
}

// pbuf writes protobuf wire format for the synthetic profile.
type pbuf []byte

func (b pbuf) varint(num int, v uint64) pbuf {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func (b pbuf) bytes(num int, v []byte) pbuf {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestAggregate buckets a synthetic CPU profile covering inlined frames,
// runtime and internal/runtime leaves, coroutine switches, standard
// library leaves charged to their repository caller, a stack with no
// repository frame, and the reference kernel's stacks, which are left out.
func TestAggregate(t *testing.T) {
	fns := []string{
		"silo/internal/cache.(*Cache).lookup", "silo/internal/machine.(*Machine).Exec",
		"silo/internal/stats.(*Histogram).Observe", "runtime.mallocgc", "silo/internal/pm.New",
		"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.coroswitch", "iter.Pull[...].func1",
		"silo/internal/sim.(*coroStream).Next", "encoding/json.(*encodeState).marshal",
		"silo/internal/harness.(*CheckpointSink).Encode", "hash/crc32.ieeeCLMUL", "silo/internal/logging.Seal",
		"math/rand.(*rngSource).Int63", "runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter",
		"sync.(*Mutex).Lock", "silo/internal/telemetry.(*LiveSink).Event", "main.main",
		"internal/runtime/maps.(*Map).putSlotSmall", "main.refKernel",
	}
	id := func(name string) uint64 {
		for i, f := range fns {
			if f == name {
				return uint64(i + 1)
			}
		}
		t.Fatalf("no function %s", name)
		return 0
	}
	var prof pbuf
	// Locations: one per function, except location 100, which holds an
	// inlined frame: cache.lookup inlined into machine.Exec.
	loc := func(lid uint64, names ...string) {
		l := pbuf(nil).varint(1, lid)
		for _, n := range names {
			l = l.bytes(4, pbuf(nil).varint(1, id(n)))
		}
		prof = prof.bytes(4, l)
	}
	for _, f := range fns {
		loc(id(f), f)
	}
	loc(100, "silo/internal/cache.(*Cache).lookup", "silo/internal/machine.(*Machine).Exec")
	loc(101, "silo/internal/stats.(*Histogram).Observe", "silo/internal/machine.(*Machine).Exec")
	sample := func(count uint64, locs ...uint64) {
		prof = prof.bytes(2, pbuf(nil).bytes(1, packed(locs...)).bytes(2, packed(count, count*1e7)))
	}
	sample(40, 100)
	sample(10, 101)
	sample(15, id("runtime.mallocgc"), id("silo/internal/pm.New"))
	sample(10, id("internal/runtime/maps.(*Map).getWithKeySmall"), id("silo/internal/machine.(*Machine).Exec"))
	sample(8, id("runtime.coroswitch"), id("iter.Pull[...].func1"), id("silo/internal/sim.(*coroStream).Next"))
	sample(5, id("encoding/json.(*encodeState).marshal"), id("silo/internal/harness.(*CheckpointSink).Encode"))
	sample(5, id("hash/crc32.ieeeCLMUL"), id("silo/internal/logging.Seal"))
	sample(2, id("runtime/pprof.(*profileBuilder).addCPUData"), id("runtime/pprof.profileWriter"))
	sample(1, id("main.main"))
	// One sample with unpacked repeated fields.
	prof = prof.bytes(2, pbuf(nil).varint(1, id("sync.(*Mutex).Lock")).varint(1, id("silo/internal/telemetry.(*LiveSink).Event")).varint(2, 3).varint(2, 3e7))
	sample(1, id("math/rand.(*rngSource).Int63"), id("silo/internal/pm.New"))
	// The reference kernel's samples are left out.
	sample(7, id("main.refKernel"))
	sample(4, id("internal/runtime/maps.(*Map).putSlotSmall"), id("main.refKernel"))
	for i := range fns { // function i+1 is named by string i+1
		prof = prof.bytes(5, pbuf(nil).varint(1, uint64(i+1)).varint(2, uint64(i+1)))
	}
	prof = prof.bytes(6, nil)
	for _, f := range fns {
		prof = prof.bytes(6, []byte(f))
	}
	prof = prof.varint(12, 1e7)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	p, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s := aggregate(p)
	want := map[string]int64{"cache": 40, "machine": 10, "runtime": 25, "workload": 8, "harness": 5,
		"logging": 5, "other": 3, "telemetry": 3, "rand": 1}
	if !reflect.DeepEqual(s.samples, want) || s.total != 100 || s.period != 1e7 {
		t.Errorf("buckets %v total %d period %d, want %v total 100", s.samples, s.total, s.period, want)
	}
	if other, _ := s.share("other"); other > 0.05 {
		t.Errorf("%.0f%% of samples unattributed, want at most 5%%", 100*other)
	}
}

func TestParseProfileTruncated(t *testing.T) {
	if _, err := parseProfile([]byte{0x12, 0x05, 0x08}); err == nil {
		t.Error("truncated profile parsed")
	}
}

// TestIQR matches Python's statistics.quantiles(range(1, 11), n=4).
func TestIQR(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqr(v); got != 5.5 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

// TestScaleToRef checks that each unit's times are scaled by the mean of
// the reference times around it.
func TestScaleToRef(t *testing.T) {
	p := &phase{
		runMs:   []float64{10, 20, 30},
		setupMs: []float64{1, 2},
		refMs:   []float64{refNominalMs, refNominalMs, 2 * refNominalMs / 3},
		units: []unitMark{
			{runs: 2, setups: 1, busy: 30 * time.Millisecond},
			{runs: 3, setups: 2, busy: 40 * time.Millisecond},
		},
	}
	p.scaleToRef()
	// Unit 0 ran at the nominal speed; unit 1 between a nominal and a
	// 1.5x faster reading, so at 1.2x.
	near := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if want := []float64{10, 20, 36}; !near(p.runRefMs, want) {
		t.Errorf("run times %v, want %v", p.runRefMs, want)
	}
	if want := []float64{1, 2.4}; !near(p.setupRefMs, want) {
		t.Errorf("set-up times %v, want %v", p.setupRefMs, want)
	}
	if !near([]float64{p.busyRefMs}, []float64{30 + 48}) || !near(p.speed, []float64{1, 1.2}) {
		t.Errorf("busy %v speed %v, want 78 and [1 1.2]", p.busyRefMs, p.speed)
	}
}

// TestRefKernelAllocatesNothing checks that the reference kernel leaves
// the Go heap alone, so it cannot move a unit's allocation count, its
// collections or its page faults.
func TestRefKernelAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(2, func() { refKernel() }); n != 0 {
		t.Errorf("reference kernel made %v allocations per call, want 0", n)
	}
}

// TestJudge checks the comparison rule's four outcomes.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "run_ms_p50", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + d
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 60, 140, 90, 110, 100}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, head []float64
		want       string
	}{
		{"faster", lower, base, shift(-5), "improved"},
		{"within bound", lower, base, shift(3), "unchanged"},
		{"slower than bound", lower, base, shift(15), "worse"},
		{"too few pairs to claim", lower, base[:5], shift(-5)[:5], "unchanged"},
		{"noisy parent", lower, noisy, noisy, "unresolved"},
		{"higher is better", metricDef{Better: "higher", Bound: 0.1}, base, shift(5), "improved"},
		{"no bound, consistently worse", metricDef{Better: "lower"}, base, shift(5), "worse"},
	} {
		if got := judge(tc.def, tc.base, tc.head).outcome; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
