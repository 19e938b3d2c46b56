package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"silo/internal/fault"
	"silo/internal/recovery"
	"silo/internal/telemetry"
)

// The golden-digest behaviour lock: for every design × workload, at 1, 2
// and 4 cores, with a grown write set, and crashed mid-run, the full run
// record and the full telemetry event stream are hashed and compared
// against a committed table. Any refactor of the engine, the op streams,
// or the workloads must leave every digest unchanged; a deliberate
// behaviour change regenerates the table with
//
//	go test ./internal/harness -run TestGoldenDigests -update
//
// (-update merges the keys that ran into the existing table).

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current code")

const goldenFile = "testdata/golden_digests.json"

// goldenWorkloads is the Fig. 4 set plus every other workload whose
// operation source is a transaction loop: the Fig. 14 sweep, the mixed
// and index workloads, and the full TPCC mix.
func goldenWorkloads() []string {
	return append(Fig4Names(), "Sweep320", "HashMix", "RBtreeMix", "BPtree", "LevelHash", "TPCC-Mix")
}

// goldenVariants are the run shapes locked per design × workload.
var goldenVariants = []struct {
	name     string
	cores    int
	opsPerTx int
	crashAt  int64
}{
	{"1c", 1, 0, 0},
	{"2c", 2, 0, 0},
	{"4c", 4, 0, 0},
	{"2c-ops3", 2, 3, 0},
	{"2c-crash", 2, 0, 200},
}

type goldenEntry struct {
	Run     string `json:"run"`    // digest of the full stats.Run
	Events  string `json:"events"` // digest of the telemetry event stream
	NEvents int    `json:"n_events"`
}

// digestSink hashes the telemetry event stream as it is emitted.
type digestSink struct {
	h hash.Hash
	n int
}

func (s *digestSink) Event(e telemetry.Event) {
	s.n++
	fmt.Fprintf(s.h, "%d %d %d %d %d %d %d %q\n", e.Cycle, e.Kind, e.Core, e.Addr, e.A, e.B, e.C, e.Note)
}

func shortSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

func goldenRun(t *testing.T, design, wl string, cores, opsPerTx int, crashAt int64) goldenEntry {
	t.Helper()
	sink := &digestSink{h: sha256.New()}
	spec := Spec{
		Design: design, Workload: wl, Cores: cores, Txns: 96, Seed: 11,
		OpsPerTx:  opsPerTx,
		Telemetry: telemetry.NewRecorder(sink),
	}
	if crashAt > 0 {
		spec.Fault = &fault.Plan{Trigger: fault.TriggerOp, AtOp: crashAt}
	}
	r, err := Run(spec)
	if err != nil {
		t.Fatalf("%s/%s: %v", design, wl, err)
	}
	rh := sha256.New()
	fmt.Fprintf(rh, "%+v", r)
	return goldenEntry{Run: shortSum(rh), Events: shortSum(sink.h), NEvents: sink.n}
}

func TestGoldenDigests(t *testing.T) {
	want := map[string]goldenEntry{}
	if raw, err := os.ReadFile(goldenFile); err == nil {
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", goldenFile, err)
		}
	} else if !*updateGolden {
		t.Fatalf("%v (generate it with -update)", err)
	}

	var mu sync.Mutex
	got := map[string]goldenEntry{}
	if *updateGolden {
		t.Cleanup(func() {
			for k, e := range got {
				want[k] = e
			}
			raw, err := json.MarshalIndent(want, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenFile, append(raw, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %d digests to %s", len(want), goldenFile)
		})
	}

	for _, design := range DesignNames() {
		for _, wl := range goldenWorkloads() {
			t.Run(design+"/"+wl, func(t *testing.T) {
				t.Parallel()
				var drift []string
				for _, v := range goldenVariants {
					key := design + "/" + wl + "/" + v.name
					e := goldenRun(t, design, wl, v.cores, v.opsPerTx, v.crashAt)
					mu.Lock()
					got[key] = e
					mu.Unlock()
					if w, ok := want[key]; !*updateGolden && (!ok || w != e) {
						drift = append(drift, fmt.Sprintf("%s: got %+v, want %+v", key, e, w))
					}
				}
				if len(drift) > 0 {
					sort.Strings(drift)
					t.Errorf("behaviour drifted from %s in %d keys:\n  %s", goldenFile, len(drift), strings.Join(drift, "\n  "))
				}
			})
		}
	}
}

// TestCrashLogMatchesRecoveryParse: the log parse the crash audit keeps
// (Machine.CrashLog) is what recovery would parse when it starts, for
// every golden 2c-crash variant — nothing between the crash and
// recovery (the stats drain included) changes what the scan reads.
func TestCrashLogMatchesRecoveryParse(t *testing.T) {
	for _, v := range goldenVariants {
		if v.crashAt == 0 {
			continue
		}
		for _, design := range DesignNames() {
			for _, wl := range goldenWorkloads() {
				spec := Spec{
					Design: design, Workload: wl, Cores: v.cores, Txns: 96, Seed: 11,
					OpsPerTx: v.opsPerTx,
					Fault:    &fault.Plan{Trigger: fault.TriggerOp, AtOp: v.crashAt},
				}
				m, _, err := RunMachine(spec)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", design, wl, v.name, err)
				}
				if !m.Crashed() {
					m.InjectCrash(m.Now())
				}
				if got, want := m.CrashLog(), recovery.Parse(m.Region()); got == nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s: CrashLog differs from a parse at recovery start", design, wl, v.name)
				}
				m.Release()
			}
		}
	}
}
