package silo

import (
	"fmt"
	"testing"

	"silo/internal/core"
	"silo/internal/harness"
	"silo/internal/logging"
	"silo/internal/pm"
	"silo/internal/sim"
)

// The benchmarks below regenerate each table/figure of the paper's
// evaluation at a reduced scale and report the headline quantity as a
// custom metric, so `go test -bench=.` doubles as a fast reproduction
// sweep. Run `silo-bench -exp all -txns 1250` for the full-scale tables.

const benchTxns = 400 // per run; kept small so -bench=. stays quick

func runSpec(b *testing.B, spec harness.Spec) (r Result) {
	b.Helper()
	r, err := harness.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkDesigns measures simulated throughput and media writes for each
// design on the Btree workload — the core Fig. 11/12 comparison.
func BenchmarkDesigns(b *testing.B) {
	for _, d := range harness.DesignNames() {
		b.Run(d, func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: d, Workload: "Btree", Cores: 4,
					Txns: benchTxns * 4, Seed: int64(i)})
			}
			b.ReportMetric(r.Throughput(), "tx/Mcycle")
			b.ReportMetric(float64(r.MediaWrites)/float64(r.Transactions), "mediaWr/tx")
		})
	}
}

// BenchmarkDesignsTPCC is the Fig. 12 cell at reduced size: each design
// on TPCC at 8 cores with the auditor off, where large write sets make
// the design hooks, the PM path and the golden shadow dominate host
// time. ReportAllocs keeps the per-run allocation count in the
// benchstat gate.
func BenchmarkDesignsTPCC(b *testing.B) {
	for _, d := range harness.DesignNames() {
		b.Run(d, func(b *testing.B) {
			b.ReportAllocs()
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: d, Workload: "TPCC", Cores: 8,
					Txns: 8 * 100, Seed: int64(i), DisableAudit: true})
			}
			b.ReportMetric(r.Throughput(), "tx/Mcycle")
		})
	}
}

// BenchmarkFig4WriteSize reports bytes written per transaction per
// workload (Fig. 4).
func BenchmarkFig4WriteSize(b *testing.B) {
	for _, wl := range harness.Fig4Names() {
		name := wl
		if wl == "TPCC" {
			name = "TPCC-Mix"
		}
		b.Run(wl, func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: "Silo", Workload: name, Cores: 1,
					Txns: benchTxns, Seed: 1})
			}
			b.ReportMetric(r.WriteBytesPerTx(), "B/tx")
		})
	}
}

// BenchmarkFig11WriteTraffic reports media writes per transaction for
// every design at 8 cores (Fig. 11d).
func BenchmarkFig11WriteTraffic(b *testing.B) {
	for _, d := range harness.DesignNames() {
		b.Run(d, func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: d, Workload: "Hash", Cores: 8,
					Txns: benchTxns * 8, Seed: 1})
			}
			b.ReportMetric(float64(r.MediaWrites)/float64(r.Transactions), "mediaWr/tx")
			b.ReportMetric(float64(r.MediaBytes)/float64(r.Transactions), "mediaB/tx")
		})
	}
}

// BenchmarkFig12Throughput reports simulated throughput for every design
// at 8 cores (Fig. 12d).
func BenchmarkFig12Throughput(b *testing.B) {
	for _, d := range harness.DesignNames() {
		b.Run(d, func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: d, Workload: "TPCC", Cores: 8,
					Txns: benchTxns * 8, Seed: 1})
			}
			b.ReportMetric(r.Throughput(), "tx/Mcycle")
		})
	}
}

// BenchmarkFig13LogReduction reports total and remaining on-chip log
// entries per transaction (Fig. 13).
func BenchmarkFig13LogReduction(b *testing.B) {
	for _, wl := range []string{"Array", "Btree", "Hash", "Queue", "RBtree", "TPCC-Mix", "YCSB"} {
		b.Run(wl, func(b *testing.B) {
			var total, remaining float64
			for i := 0; i < b.N; i++ {
				m, _, err := harness.RunMachine(harness.Spec{Design: "Silo", Workload: wl,
					Cores: 1, Txns: benchTxns, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				total, remaining, _ = m.Design().(*core.Silo).LogReduction()
			}
			b.ReportMetric(total, "logs/tx")
			b.ReportMetric(remaining, "remaining/tx")
		})
	}
}

// BenchmarkTable4Battery reports the crash-flush energy of each
// persistence domain (Table IV); it is analytic, so the benchmark also
// measures the model's cost.
func BenchmarkTable4Battery(b *testing.B) {
	var tbl fmt.Stringer
	for i := 0; i < b.N; i++ {
		tbl = harness.Table4(8, 0)
	}
	if tbl.String() == "" {
		b.Fatal("empty table")
	}
}

// BenchmarkFig14Overflow reports the per-operation throughput and media
// writes at 1x and 16x write sets (Fig. 14's endpoints).
func BenchmarkFig14Overflow(b *testing.B) {
	for _, mult := range []int{1, 4, 16} {
		words := mult * logging.DefaultBufferEntries
		b.Run(fmt.Sprintf("%dx", mult), func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: "Silo",
					Workload: fmt.Sprintf("Sweep%d", words), Cores: 4,
					Txns: benchTxns, Seed: 1})
			}
			perOp := float64(words)
			b.ReportMetric(r.Throughput()*perOp, "words/Mcycle")
			b.ReportMetric(float64(r.MediaWrites)/float64(r.Transactions)/perOp, "mediaWr/word")
			b.ReportMetric(float64(r.LogOverflows)/float64(r.Transactions), "overflows/tx")
		})
	}
}

// BenchmarkFig15BufferLatency reports throughput at 8 vs 128 cycle log
// buffers (Fig. 15: expected flat).
func BenchmarkFig15BufferLatency(b *testing.B) {
	for _, lat := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("%dcy", lat), func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: "Silo", Workload: "Btree", Cores: 4,
					Txns: benchTxns * 4, Seed: 1, LogBufLatency: sim.Cycle(lat)})
			}
			b.ReportMetric(r.Throughput(), "tx/Mcycle")
		})
	}
}

// BenchmarkEngineOverhead measures the simulator's own speed: host
// nanoseconds per simulated memory operation (the number that bounds how
// big an experiment is practical). The cooperative sub-benchmark drives
// the pull-based scheduler directly; legacy routes the same workload
// through the goroutine-per-core channel shim, so the pair quantifies the
// transport rewrite. Both produce bit-identical simulated results.
func BenchmarkEngineOverhead(b *testing.B) {
	for _, tc := range []struct {
		name   string
		legacy bool
	}{{"cooperative", false}, {"legacy", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var ops int64
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: "Silo", Workload: "Btree", Cores: 4,
					Txns: 2000, Seed: int64(i), LegacyEngine: tc.legacy})
				ops = r.Loads + r.Stores + 2*r.Transactions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops)/float64(b.N), "host-ns/simOp")
			b.ReportMetric(float64(ops), "simOps/run")
		})
	}
}

// --- Ablations (DESIGN.md §4): each design choice on vs off ---

func benchAblation(b *testing.B, spec harness.Spec) {
	var r Result
	for i := 0; i < b.N; i++ {
		r = runSpec(b, spec)
	}
	b.ReportMetric(r.Throughput(), "tx/Mcycle")
	b.ReportMetric(float64(r.MediaWrites)/float64(r.Transactions), "mediaWr/tx")
}

// BenchmarkAblationNoCoalescing disables the on-PM buffer (§III-E).
func BenchmarkAblationNoCoalescing(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("coalescing=%v", on), func(b *testing.B) {
			benchAblation(b, harness.Spec{Design: "Silo", Workload: "TPCC", Cores: 4,
				Txns: benchTxns * 4, Seed: 1,
				PMMod: func(c *pm.Config) { c.Coalescing = on }})
		})
	}
}

// BenchmarkAblationNoDCW disables data-comparison-write (§III-D).
func BenchmarkAblationNoDCW(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("dcw=%v", on), func(b *testing.B) {
			benchAblation(b, harness.Spec{Design: "Silo", Workload: "Array", Cores: 4,
				Txns: benchTxns * 4, Seed: 1,
				PMMod: func(c *pm.Config) { c.DCW = on }})
		})
	}
}

// BenchmarkAblationNoMerge disables on-chip log merging (§III-C).
func BenchmarkAblationNoMerge(b *testing.B) {
	for _, off := range []bool{false, true} {
		b.Run(fmt.Sprintf("mergeDisabled=%v", off), func(b *testing.B) {
			benchAblation(b, harness.Spec{Design: "Silo", Workload: "Queue", Cores: 4,
				Txns: benchTxns * 4, Seed: 1, SiloOpts: core.Options{DisableMerge: off}})
		})
	}
}

// BenchmarkAblationNoIgnore disables log ignorance (§III-C).
func BenchmarkAblationNoIgnore(b *testing.B) {
	for _, off := range []bool{false, true} {
		b.Run(fmt.Sprintf("ignoreDisabled=%v", off), func(b *testing.B) {
			benchAblation(b, harness.Spec{Design: "Silo", Workload: "Array", Cores: 4,
				Txns: benchTxns * 4, Seed: 1, SiloOpts: core.Options{DisableIgnore: off}})
		})
	}
}

// BenchmarkAblationNoBatchOverflow evicts one log at a time on overflow
// instead of the batched N = ⌊S/18⌋ (§III-F).
func BenchmarkAblationNoBatchOverflow(b *testing.B) {
	for _, single := range []bool{false, true} {
		b.Run(fmt.Sprintf("singleEntry=%v", single), func(b *testing.B) {
			benchAblation(b, harness.Spec{Design: "Silo", Workload: "Sweep80", Cores: 4,
				Txns: benchTxns, Seed: 1, SiloOpts: core.Options{SingleEntryOverflow: single}})
		})
	}
}

// BenchmarkAblationMultiMC sweeps the number of memory-controller
// channels (§III-D, "Multiple MCs"): Silo's efficiency must not depend on
// MC count because a transaction's logs and in-place updates meet at the
// same controller.
func BenchmarkAblationMultiMC(b *testing.B) {
	for _, ch := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dMCs", ch), func(b *testing.B) {
			benchAblation(b, harness.Spec{Design: "Silo", Workload: "Hash", Cores: 8,
				Txns: benchTxns * 8, Seed: 1,
				PMMod: func(c *pm.Config) { c.Channels = ch }})
		})
	}
}

// BenchmarkAblationLogBufCapacity sweeps the log buffer size around the
// paper's 20 entries (§VI-D).
func BenchmarkAblationLogBufCapacity(b *testing.B) {
	for _, entries := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("%dentries", entries), func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runSpec(b, harness.Spec{Design: "Silo", Workload: "TPCC", Cores: 4,
					Txns: benchTxns * 4, Seed: 1, LogBufEntries: entries})
			}
			b.ReportMetric(r.Throughput(), "tx/Mcycle")
			b.ReportMetric(float64(r.LogOverflows)/float64(r.Transactions), "overflows/tx")
		})
	}
}
