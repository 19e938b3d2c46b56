package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"silo/internal/stats"
)

// BenchSchema versions the BENCH_silo.json format; bump it when a field
// changes meaning so trend tooling can refuse to compare unlike runs.
const BenchSchema = 1

// BenchRow is one (design × workload) cell of the benchmark snapshot.
type BenchRow struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`

	Throughput      float64 `json:"throughput_tx_per_mcycle"`
	WriteBytesPerTx float64 `json:"write_bytes_per_tx"`
	MediaWrites     int64   `json:"media_writes"`
	Cycles          int64   `json:"cycles"`
	Transactions    int64   `json:"transactions"`

	// Commit-stall percentiles from machine.CommitHist (cycles a core
	// stalls at Tx_end), and whole-transaction latency percentiles.
	CommitP50 int64 `json:"commit_stall_p50_cycles"`
	CommitP99 int64 `json:"commit_stall_p99_cycles"`
	TxP50     int64 `json:"tx_latency_p50_cycles"`
	TxP99     int64 `json:"tx_latency_p99_cycles"`
}

// BenchReport is the machine-readable performance snapshot silo-bench
// emits: the repo's perf trajectory lives in the committed history of
// this file. No wall-clock timestamp is recorded — two runs of the same
// tree must produce byte-identical reports.
type BenchReport struct {
	Schema      int        `json:"schema"`
	Cores       int        `json:"cores"`
	TxnsPerCore int        `json:"txns_per_core"`
	Seed        int64      `json:"seed"`
	Rows        []BenchRow `json:"rows"`
}

// Bench runs every (design × workload) pair at the given core count and
// returns the snapshot. Runs execute in parallel across host CPUs like
// Grid; the audit layer is off (perf numbers, not correctness runs).
func Bench(cores, txnsPerCore int, seed int64) (BenchReport, error) {
	type key struct{ d, w string }
	var keys []key
	for _, w := range WorkloadNames() {
		for _, d := range DesignNames() {
			keys = append(keys, key{d, w})
		}
	}
	rows := make([]BenchRow, len(keys))
	err := parallel(len(keys), func(i int) error {
		k := keys[i]
		m, r, err := RunMachine(Spec{
			Design: k.d, Workload: k.w, Cores: cores,
			Txns: txnsPerCore * cores, Seed: seed,
			DisableAudit: true,
		})
		if err != nil {
			return err
		}
		ch, th := m.CommitHist(), m.TxHist()
		rows[i] = BenchRow{
			Design:          k.d,
			Workload:        k.w,
			Throughput:      r.Throughput(),
			WriteBytesPerTx: r.WriteBytesPerTx(),
			MediaWrites:     r.MediaWrites,
			Cycles:          r.Cycles,
			Transactions:    r.Transactions,
			CommitP50:       ch.Percentile(50),
			CommitP99:       ch.Percentile(99),
			TxP50:           th.Percentile(50),
			TxP99:           th.Percentile(99),
		}
		return nil
	})
	if err != nil {
		return BenchReport{}, err
	}
	return BenchReport{
		Schema:      BenchSchema,
		Cores:       cores,
		TxnsPerCore: txnsPerCore,
		Seed:        seed,
		Rows:        rows,
	}, nil
}

// WriteJSON writes the report as indented JSON (stable field and row
// order, so diffs of the committed snapshot stay reviewable).
func (b BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Table renders the snapshot as a text table for terminal consumption.
func (b BenchReport) Table() *stats.Table {
	t := stats.NewTable("Benchmark snapshot (throughput tx/Mcycle, commit-stall p50/p99 cycles)",
		"Design", "Workload", "Throughput", "WB/Tx", "CommitP50", "CommitP99", "TxP99")
	for _, r := range b.Rows {
		t.AddRow(r.Design, r.Workload,
			fmt.Sprintf("%.2f", r.Throughput), fmt.Sprintf("%.1f", r.WriteBytesPerTx),
			fmt.Sprintf("%d", r.CommitP50), fmt.Sprintf("%d", r.CommitP99),
			fmt.Sprintf("%d", r.TxP99))
	}
	return t
}
