package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"bytes"

	"silo/internal/audit"
	"silo/internal/core"
	"silo/internal/stats"
	"silo/internal/trace"
)

func coreOptions() core.Options { return core.Options{} }

func TestDesignFactoryAllNames(t *testing.T) {
	for _, d := range DesignNames() {
		if _, err := DesignFactory(d, coreOptions()); err != nil {
			t.Errorf("design %q: %v", d, err)
		}
	}
	if _, err := DesignFactory("Nope", coreOptions()); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestGetWorkloadAllNames(t *testing.T) {
	names := append([]string{}, WorkloadNames()...)
	names = append(names, "TPCC-Mix", "Rtree", "Ctrie", "TATP", "Bank", "Sweep40")
	for _, n := range names {
		w, err := GetWorkload(n)
		if err != nil || w == nil {
			t.Errorf("workload %q: %v", n, err)
		}
	}
	for _, bad := range []string{"nope", "Sweep", "Sweep0", "Sweepx"} {
		if _, err := GetWorkload(bad); err == nil {
			t.Errorf("bad workload %q accepted", bad)
		}
	}
}

func TestRunBasics(t *testing.T) {
	r, err := Run(Spec{Design: "Silo", Workload: "Queue", Cores: 2, Txns: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Transactions != 200 || r.Cores != 2 {
		t.Errorf("run record: %+v", r)
	}
	if r.Cycles <= 0 || r.Stores == 0 {
		t.Error("empty run")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	spec := Spec{Design: "Silo", Workload: "Hash", Cores: 2, Txns: 300, Seed: 5}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different runs:\n%+v\n%+v", a, b)
	}
	spec.Seed = 6
	c, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical runs")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Spec{Design: "Nope", Workload: "Btree"}); err == nil {
		t.Error("bad design accepted")
	}
	if _, err := Run(Spec{Design: "Silo", Workload: "Nope"}); err == nil {
		t.Error("bad workload accepted")
	}
}

// TestGridShape runs a reduced grid and validates the paper's ordering
// claims: Silo has the highest throughput and Base the most media writes.
func TestGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is slow")
	}
	grid, err := Grid([]int{2}, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range WorkloadNames() {
		base := grid[GridKey{"Base", wl, 2}]
		siloRun := grid[GridKey{"Silo", wl, 2}]
		if siloRun.Throughput() <= base.Throughput() {
			t.Errorf("%s: Silo throughput %.1f <= Base %.1f", wl, siloRun.Throughput(), base.Throughput())
		}
		if siloRun.MediaWrites >= base.MediaWrites {
			t.Errorf("%s: Silo media writes %d >= Base %d", wl, siloRun.MediaWrites, base.MediaWrites)
		}
	}
	// Table rendering works and normalizes Base to 1.
	tbl := Fig11(grid, []int{2})[0]
	if !strings.Contains(tbl.String(), "Base") {
		t.Error("Fig11 table missing Base row")
	}
	if tbl.Rows[0][1] != "1.000" {
		t.Errorf("Base not normalized to 1: %v", tbl.Rows[0])
	}
	thr := Fig12(grid, []int{2})[0]
	if len(thr.Rows) != len(DesignNames()) {
		t.Error("Fig12 row count")
	}
}

func TestFig4Table(t *testing.T) {
	tbl, err := Fig4(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig4Names()) {
		t.Fatalf("Fig4 rows = %d", len(tbl.Rows))
	}
}

func TestFig13Table(t *testing.T) {
	tbl, err := Fig13(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("Fig13 rows = %d", len(tbl.Rows))
	}
	// Remaining <= Total on every row (reduction never adds logs).
	for _, row := range tbl.Rows {
		if row[1] < row[2] && len(row[1]) == len(row[2]) {
			t.Errorf("row %v: remaining exceeds total", row)
		}
	}
}

func TestStaticTables(t *testing.T) {
	for _, tbl := range []*stats.Table{Table1(0, 8), Table4(8, 0), ConfigTable()} {
		if len(tbl.Rows) == 0 || tbl.String() == "" {
			t.Errorf("table %q empty", tbl.Title)
		}
	}
	// Table IV rows: eADR, BBB, Silo.
	t4 := Table4(8, 0)
	if len(t4.Rows) != 3 || t4.Rows[2][0] != "Silo" {
		t.Errorf("Table IV shape: %v", t4.Rows)
	}
}

func TestFig15Flat(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	tbl, err := Fig15(1, 200, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Log buffer latency is off the critical path: every normalized value
	// stays within a few percent of 1.
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v < 0.9 || v > 1.1 {
				t.Errorf("%s: normalized throughput %v far from 1 (Fig. 15 expects flat)", row[0], v)
			}
		}
	}
}

var _ = fmt.Sprintf // keep fmt for table debugging helpers

// TestTraceRecordReplayFidelity records a run and replays it under the
// same design: loads, stores, commits and PM traffic must match exactly,
// since the operation streams and the initial PM state are identical.
func TestTraceRecordReplayFidelity(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	spec := Spec{Design: "Silo", Workload: "Btree", Cores: 2, Txns: 300, Seed: 4}
	spec.Trace = w
	orig, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(tr.Transactions()) != orig.Transactions {
		t.Fatalf("trace has %d txns, run committed %d", tr.Transactions(), orig.Transactions)
	}
	spec.Trace = nil
	rep, err := ReplayRun(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loads != orig.Loads || rep.Stores != orig.Stores || rep.Transactions != orig.Transactions {
		t.Errorf("replay op counts differ: %+v vs %+v", rep, orig)
	}
	if rep.Cycles != orig.Cycles || rep.MediaWrites != orig.MediaWrites {
		t.Errorf("replay timing/traffic differ: cycles %d vs %d, media %d vs %d",
			rep.Cycles, orig.Cycles, rep.MediaWrites, orig.MediaWrites)
	}
}

// TestTraceReplayAcrossDesigns replays one Btree trace under every design:
// op counts are pinned, while timing and traffic may differ.
func TestTraceReplayAcrossDesigns(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	spec := Spec{Design: "Silo", Workload: "Btree", Cores: 1, Txns: 150, Seed: 4, Trace: w}
	orig, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	tr, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ExtendedDesignNames() {
		r, err := ReplayRun(Spec{Design: d, Workload: "Btree", Cores: 1, Seed: 4}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stores != orig.Stores || r.Transactions != orig.Transactions {
			t.Errorf("%s: replay changed the op stream", d)
		}
	}
}

func TestOrderingTable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-design run")
	}
	tbl, err := Ordering("Queue", 1, 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(ExtendedDesignNames()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Silo's commit stall must be the smallest among logging designs.
	stall := map[string]string{}
	for _, row := range tbl.Rows {
		stall[row[0]] = row[2]
	}
	silo, _ := strconv.ParseFloat(stall["Silo"], 64)
	morlog, _ := strconv.ParseFloat(stall["MorLog"], 64)
	if silo >= morlog {
		t.Errorf("Silo commit stall %v >= MorLog %v", silo, morlog)
	}
}

func TestLatencyTable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-design run")
	}
	tbl, err := Latency("Queue", 1, 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(ExtendedDesignNames()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestEADRStudyTable(t *testing.T) {
	tbl, err := EADRStudy("YCSB", 1, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// eADR-SW's L1 accesses per tx must exceed SWLog's (cache pollution).
	sw, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
	eadr, _ := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if eadr <= sw {
		t.Errorf("eADR-SW L1 accesses %v <= SWLog %v; pollution not visible", eadr, sw)
	}
}

func TestRecoverySweepTable(t *testing.T) {
	tbl, err := RecoverySweep("Silo", "Queue", 2, 800, 3, []int64{300, 5000})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		v := row[len(row)-1]
		if !strings.HasSuffix(v, "ok") {
			t.Errorf("crash at %s: verification %q", row[0], v)
		}
		parts := strings.SplitN(strings.TrimSuffix(v, " ok"), "/", 2)
		if len(parts) == 2 && parts[0] != parts[1] {
			t.Errorf("crash at %s: mismatches present: %s", row[0], v)
		}
	}
}

// TestCrashScanExhaustive crashes a small Silo run at every single
// operation index and verifies atomic durability each time.
func TestCrashScanExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive scan is slow")
	}
	spec := Spec{Design: "Silo", Workload: "Bank", Cores: 1, Txns: 40, Seed: 6}
	points, failures, err := CrashScan(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if points < 300 {
		t.Fatalf("scan covered only %d points", points)
	}
	if len(failures) != 0 {
		t.Fatalf("atomic durability violated at %d points: %v", len(failures), failures[:min(3, len(failures))])
	}
	t.Logf("exhaustive crash scan: %d crash points, all recovered correctly", points)
}

// TestCrashScanStridedAllDesigns runs a strided scan over every design.
func TestCrashScanStridedAllDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("scan is slow")
	}
	for _, d := range ExtendedDesignNames() {
		d := d
		t.Run(d, func(t *testing.T) {
			spec := Spec{Design: d, Workload: "Queue", Cores: 2, Txns: 60, Seed: 6}
			points, failures, err := CrashScan(spec, 37)
			if err != nil {
				t.Fatal(err)
			}
			if points == 0 {
				t.Fatal("no crash points")
			}
			if len(failures) != 0 {
				t.Fatalf("violations: %v", failures[:min(3, len(failures))])
			}
		})
	}
}

// TestCrashScanContainsAuditViolations: a scan over a seeded §III-G
// ordering bug reports each contained crash-flush-order violation as a
// failure line instead of dying on the first one, and stops at the 21st
// failing point, which is the last point it counts.
func TestCrashScanContainsAuditViolations(t *testing.T) {
	spec := Spec{Design: "Silo", Workload: "Hash", Cores: 2, Txns: 2000, Seed: 6,
		SiloOpts: core.Options{DebugRedoBeforeCommit: true}}
	points, failures, err := CrashScan(spec, 97)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 21 {
		t.Fatalf("%d failure lines over %d points, want the cap of 21", len(failures), points)
	}
	for _, f := range failures {
		if !strings.HasPrefix(f, "crash@") || !strings.Contains(f, ": error: ") || !strings.Contains(f, audit.InvCrashOrder) {
			t.Fatalf("failure line %q: want a contained %s violation", f, audit.InvCrashOrder)
		}
	}
	if last := fmt.Sprintf("crash@%d: ", points*97); !strings.HasPrefix(failures[20], last) {
		t.Errorf("last failure %q: want it at the last counted point (%s)", failures[20], last)
	}
}

func TestHotspotTable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-design run")
	}
	tbl, err := Hotspot("Btree", 1, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(ExtendedDesignNames()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	skew := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad skew %q", row[4])
		}
		skew[row[0]] = v
	}
	// Per-transaction log truncation makes Base reuse the same log lines;
	// its wear skew must dwarf Silo's.
	if skew["Base"] < 4*skew["Silo"] {
		t.Errorf("Base wear skew %.1f not >> Silo %.1f", skew["Base"], skew["Silo"])
	}
}

// TestGridParallelDeterminism: the grid runs concurrently across host
// CPUs, but each simulation is hermetic — two grids with the same seed
// must be identical.
func TestGridParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two grids")
	}
	a, err := Grid([]int{1}, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Grid([]int{1}, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("grid sizes differ")
	}
	for k, ra := range a {
		if rb := b[k]; ra != rb {
			t.Fatalf("grid not deterministic at %+v", k)
		}
	}
}
