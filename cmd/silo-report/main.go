// Command silo-report runs the full evaluation suite and emits a single
// self-contained Markdown report — every paper table/figure plus the
// extension studies — suitable for committing next to EXPERIMENTS.md or
// attaching to a regression ticket.
//
// Usage:
//
//	silo-report -txns 1250 -o report.md
//
// With -torture it instead summarizes a torture/cluster sweep
// checkpoint: the SRS1 result store silo-torture or silo-cluster -out
// wrote. The store is opened read-only via mmap and summarized from
// its fixed-size index rows alone. The loader is strict: a missing,
// empty or damaged store, or a file that is not a store at all, is a
// clear error and a nonzero exit; only an interrupted writer's
// artifact — the store's recoverable sealed prefix — is tolerated, and
// called out:
//
//	silo-report -torture sweep.srs
//
// -design/-workload/-failed-only switch to a query listing, still
// without deserializing any payload:
//
//	silo-report -torture sweep.srs -design Silo -failed-only
//
// JSONL is an export and an import, never a checkpoint. -jsonl writes
// every record of a sealed store to stdout, one JSON line each in
// append order; -convert imports a JSONL checkpoint (the format older
// sweeps wrote) into a store, with the output path as the positional
// argument (default: the input with a .srs extension). The round trip
// reproduces both the lines and the summary byte for byte:
//
//	silo-report -jsonl sweep.srs > sweep.jsonl
//	silo-report -convert sweep.jsonl back.srs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"silo/internal/buildinfo"
	"silo/internal/explore"
	"silo/internal/harness"
	"silo/internal/resultstore"
	"silo/internal/stats"
)

func main() {
	var (
		txns    = flag.Int("txns", 600, "transactions per core (grid) / total (others)")
		seed    = flag.Int64("seed", 42, "simulation seed")
		out     = flag.String("o", "", "output file (default stdout)")
		torture = flag.String("torture", "", "summarize this torture/cluster checkpoint store instead of running the suite")
		convert = flag.String("convert", "", "import this JSONL checkpoint into a store (output = positional arg, default input with .srs)")
		jsonl   = flag.String("jsonl", "", "export every record of this sealed store to stdout as JSON lines, in append order")

		design     = flag.String("design", "", "with -torture: list only campaigns of this design")
		workload   = flag.String("workload", "", "with -torture: list only campaigns of this workload")
		failedOnly = flag.Bool("failed-only", false, "with -torture: list only campaigns with a durability failure")

		merge  = flag.String("merge", "", "merge/compact the positional stores into this store (latest record per campaign index wins, ascending index order)")
		pareto = flag.Bool("pareto", false, "render the Pareto frontier of the positional explorer checkpoint stores (see silo-explore)")
	)
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("silo-report", showVersion)

	if *convert != "" {
		os.Exit(convertMode(*convert, flag.Arg(0)))
	}
	if *jsonl != "" {
		os.Exit(jsonlMode(*jsonl))
	}
	if *merge != "" {
		os.Exit(mergeMode(*merge, flag.Args()))
	}
	if *pareto {
		os.Exit(paretoMode(flag.Args()))
	}
	if *torture != "" {
		filter := resultstore.Filter{Design: *design, Workload: *workload, FailedOnly: *failedOnly}
		os.Exit(tortureReport(*torture, filter))
	}
	if *design != "" || *workload != "" || *failedOnly {
		fmt.Fprintln(os.Stderr, "silo-report: -design/-workload/-failed-only require -torture")
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}

	section := func(title string) {
		fmt.Fprintf(w, "\n## %s\n\n", title)
	}
	table := func(t *stats.Table, err error) {
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "```\n%s```\n", t)
	}

	fmt.Fprintf(w, "# Silo reproduction report\n\n")
	fmt.Fprintf(w, "Generated %s · seed %d · %d txns/core (grid)\n",
		time.Now().UTC().Format(time.RFC3339), *seed, *txns)

	section("System configuration (Table II)")
	table(harness.ConfigTable(), nil)
	section("Hardware overhead (Table I)")
	table(harness.Table1(0, 8), nil)
	section("Battery requirements (Table IV)")
	table(harness.Table4(8, 0), nil)

	section("Write size per transaction (Fig. 4)")
	table(harness.Fig4(*txns, *seed))

	section("Write traffic and throughput (Figs. 11–12)")
	coresList := []int{1, 8}
	fmt.Fprintln(os.Stderr, "silo-report: running the design×workload grid...")
	grid, err := harness.Grid(coresList, *txns, *seed)
	if err != nil {
		fatal(err)
	}
	for _, t := range harness.Fig11(grid, coresList) {
		table(t, nil)
	}
	for _, t := range harness.Fig12(grid, coresList) {
		table(t, nil)
	}

	section("On-chip log reduction (Fig. 13)")
	table(harness.Fig13(*txns, *seed))

	section("Large transactions (Fig. 14)")
	thr, wr, err := harness.Fig14(4, *txns, *seed)
	if err != nil {
		fatal(err)
	}
	table(thr, nil)
	table(wr, nil)

	section("Log buffer latency (Fig. 15)")
	table(harness.Fig15(4, *txns, *seed, nil))

	section("Ordering constraints (§II-D, extension)")
	table(harness.Ordering("Btree", 2, *txns, *seed))

	section("Commit latency distributions (extension)")
	table(harness.Latency("Btree", 2, *txns, *seed))

	section("Execution timeline (telemetry extension)")
	sampler, _, err := harness.Timeline(harness.Spec{
		Design: "Silo", Workload: "Btree", Cores: 2, Txns: *txns, Seed: *seed,
		DisableAudit: true,
	}, 20_000)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "Silo on Btree, 2 cores, 20 k-cycle windows — where commits, evictions,\noverflows and WPQ pressure landed inside the run:\n\n")
	fmt.Fprintf(w, "```\n%s```\n", sampler.Table())

	section("eADR software logging (§II-C, extension)")
	table(harness.EADRStudy("YCSB", 2, *txns, *seed))

	section("Recovery sweep (§III-G, extension)")
	table(harness.RecoverySweep("Silo", "Hash", 2, *txns, *seed, nil))

	fmt.Fprintln(w, "\n---\nAll tables regenerated from live simulation; see EXPERIMENTS.md for the paper-vs-measured analysis.")
}

// tortureReport summarizes a checkpoint store. Exit codes: 0 a
// readable store with zero durability failures; 1 failures on record,
// or the store is unreadable (missing, empty, damaged, or not a store).
// A non-zero Filter switches to the index-only query listing.
func tortureReport(path string, filter resultstore.Filter) int {
	if filter != (resultstore.Filter{}) {
		return queryStore(path, filter)
	}
	s, err := harness.SummarizeStore(path)
	if err != nil {
		// Store-layer errors already name the file; only prefix the
		// path for those that don't.
		msg := err.Error()
		if !strings.Contains(msg, path) {
			msg = path + ": " + msg
		}
		fmt.Fprintf(os.Stderr, "silo-report: %s\n", msg)
		return 1
	}
	fmt.Print(s.String())
	fmt.Print(s.Table().String())
	if len(s.Failures) > 0 {
		return 1
	}
	return 0
}

// queryStore lists a store's campaigns matching the filter from the
// fixed-size index rows alone — no payload is ever deserialized, so a
// filtered listing over a 100k-campaign store touches only the mmap'd
// index section. Exit codes: 0 listed (even zero matches); 1 the store
// is unreadable or the file is not a store.
func queryStore(path string, filter resultstore.Filter) int {
	st, err := resultstore.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silo-report:", err)
		if errors.Is(err, resultstore.ErrNotStore) {
			fmt.Fprintf(os.Stderr, "silo-report: to use a JSONL checkpoint, convert it first: silo-report -convert %s\n", path)
		}
		return 1
	}
	defer st.Close()
	matched := 0
	st.Scan(filter, func(_ int, r resultstore.Row) bool {
		matched++
		line := fmt.Sprintf("campaign %d: %s/%s seed=%d %s commits=%d attempts=%d",
			r.Index, r.Design, r.Workload, r.Seed, r.Kind, r.Commits, r.Attempts)
		if r.Kind == resultstore.KindMismatch {
			line += fmt.Sprintf(" mismatches=%d invariant=%q", r.Mismatches, r.Invariant)
		}
		if r.HasTrace() {
			line += " trace=embedded"
		}
		fmt.Println(line)
		return true
	})
	var parts []string
	if filter.Design != "" {
		parts = append(parts, "design="+filter.Design)
	}
	if filter.Workload != "" {
		parts = append(parts, "workload="+filter.Workload)
	}
	if filter.FailedOnly {
		parts = append(parts, "failed-only")
	}
	fmt.Printf("%d/%d campaigns matched [%s]\n", matched, st.Count(), strings.Join(parts, " "))
	return 0
}

// convertMode imports a JSONL checkpoint into a store. The output path
// defaults to the input with a .srs extension. Exit codes: 0
// converted; 1 the input is unreadable or the write failed.
func convertMode(in, out string) int {
	if out == "" {
		out = strings.TrimSuffix(in, ".jsonl") + ".srs"
	}
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silo-report:", err)
		return 1
	}
	defer f.Close()
	n, tornTail, err := convertJSONL(f, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "silo-report: convert %s: %v\n", in, err)
		return 1
	}
	fmt.Printf("converted %d campaigns: %s -> %s\n", n, in, out)
	if tornTail {
		fmt.Println("note: input ended in a torn partial record (interrupted writer); the torn tail was dropped and the store sealed complete")
	}
	return 0
}

// jsonlMode exports a sealed store as JSON lines on stdout. Exit
// codes: 0 exported; 1 the store is unreadable.
func jsonlMode(path string) int {
	if err := exportJSONL(os.Stdout, path); err != nil {
		fmt.Fprintln(os.Stderr, "silo-report:", err)
		return 1
	}
	return 0
}

// mergeMode folds the source stores into one compacted store (see
// harness.MergeStores): silo-report -merge merged.srs shard-0.srs ...
func mergeMode(out string, srcs []string) int {
	if len(srcs) == 0 {
		fmt.Fprintln(os.Stderr, "silo-report: -merge needs at least one source store as a positional argument")
		return 2
	}
	n, err := harness.MergeStores(out, srcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silo-report:", err)
		return 1
	}
	fmt.Printf("merged %d campaigns from %d stores into %s\n", n, len(srcs), out)
	return 0
}

// paretoMode loads explorer checkpoints and renders their Pareto
// frontier (throughput vs media writes vs crash-flush energy).
func paretoMode(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "silo-report: -pareto needs at least one explorer checkpoint store as a positional argument")
		return 2
	}
	byIndex := make(map[int]harness.Record)
	for _, p := range paths {
		recs, err := harness.LoadRecords(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silo-report:", err) // names the file
			return 1
		}
		for i, r := range recs {
			byIndex[i] = r
		}
	}
	idxs := make([]int, 0, len(byIndex))
	for i := range byIndex {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	recs := make([]harness.Record, 0, len(idxs))
	for _, i := range idxs {
		recs = append(recs, byIndex[i])
	}
	fmt.Print(explore.Report(recs))
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silo-report:", err)
	os.Exit(1)
}
