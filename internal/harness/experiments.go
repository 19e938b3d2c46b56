package harness

import (
	"fmt"
	"runtime"
	"sync"

	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/energy"
	"silo/internal/fault"
	"silo/internal/logging"
	"silo/internal/pm"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/stats"
)

// GridKey indexes one run in the Fig. 11/12 grid.
type GridKey struct {
	Design   string
	Workload string
	Cores    int
}

// Grid runs every (design × workload × cores) combination once and
// returns the run records; Fig11 and Fig12 both read from it so the
// expensive grid is simulated once. txnsPerCore transactions run on each
// core (weak scaling), so the cold-cache warm-up fraction is identical
// across core counts and the normalized comparisons stay fair. Runs are
// independent simulations, so they execute in parallel across host CPUs;
// results are deterministic regardless of parallelism.
func Grid(coresList []int, txnsPerCore int, seed int64) (map[GridKey]stats.Run, error) {
	var keys []GridKey
	for _, cores := range coresList {
		for _, wl := range WorkloadNames() {
			for _, d := range DesignNames() {
				keys = append(keys, GridKey{d, wl, cores})
			}
		}
	}
	results := make([]stats.Run, len(keys))
	err := parallel(len(keys), func(i int) (err error) {
		k := keys[i]
		results[i], err = Run(Spec{
			Design: k.Design, Workload: k.Workload, Cores: k.Cores,
			Txns: txnsPerCore * k.Cores, Seed: seed,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[GridKey]stats.Run, len(keys))
	for i, k := range keys {
		out[k] = results[i]
	}
	return out, nil
}

// parallel calls fn(i) for every i in [0, n), at most GOMAXPROCS at a
// time, and returns the error of the lowest failing i (nil if none).
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gridTable renders one metric of the grid for one core count, normalized
// per workload to Base, with a geometric-mean Average column.
func gridTable(grid map[GridKey]stats.Run, cores int, title string, metric func(stats.Run) float64) *stats.Table {
	cols := append([]string{"Design"}, WorkloadNames()...)
	cols = append(cols, "Average")
	t := stats.NewTable(fmt.Sprintf("%s (%d cores, normalized to Base)", title, cores), cols...)
	for _, d := range DesignNames() {
		vals := make([]float64, 0, len(WorkloadNames())+1)
		for _, wl := range WorkloadNames() {
			base := metric(grid[GridKey{"Base", wl, cores}])
			v := metric(grid[GridKey{d, wl, cores}])
			if base > 0 {
				vals = append(vals, v/base)
			} else {
				vals = append(vals, 0)
			}
		}
		vals = append(vals, stats.GeoMean(vals))
		t.AddFloats(d, "%.3f", vals...)
	}
	return t
}

// Fig11 renders the normalized PM media write traffic (one table per core
// count), matching Fig. 11(a–d).
func Fig11(grid map[GridKey]stats.Run, coresList []int) []*stats.Table {
	var out []*stats.Table
	for _, c := range coresList {
		out = append(out, gridTable(grid, c, "Fig. 11: write traffic to PM media",
			func(r stats.Run) float64 { return float64(r.MediaWrites) }))
	}
	return out
}

// Fig12 renders the normalized transaction throughput (one table per core
// count), matching Fig. 12(a–d).
func Fig12(grid map[GridKey]stats.Run, coresList []int) []*stats.Table {
	var out []*stats.Table
	for _, c := range coresList {
		out = append(out, gridTable(grid, c, "Fig. 12: transaction throughput",
			func(r stats.Run) float64 { return r.Throughput() }))
	}
	return out
}

// Fig4 measures the write size per transaction for the eleven workloads.
func Fig4(txns int, seed int64) (*stats.Table, error) {
	t := stats.NewTable("Fig. 4: write size (B) per transaction",
		"Workload", "Bytes/Tx", "Stores/Tx")
	for _, wl := range Fig4Names() {
		name := wl
		if wl == "TPCC" {
			name = "TPCC-Mix" // Fig. 4 profiles the full application
		}
		r, err := Run(Spec{Design: "Silo", Workload: name, Cores: 1, Txns: txns, Seed: seed})
		if err != nil {
			return nil, err
		}
		t.AddRow(wl,
			fmt.Sprintf("%.1f", r.WriteBytesPerTx()),
			fmt.Sprintf("%.1f", float64(r.Stores)/float64(r.Transactions)))
	}
	return t, nil
}

// Fig13 reports the total vs remaining on-chip log entries per
// transaction under Silo, plus the reduction rate (§VI-D). TPCC runs all
// five transaction types, as in the paper's capacity study.
func Fig13(txns int, seed int64) (*stats.Table, error) {
	t := stats.NewTable("Fig. 13: on-chip log entries per transaction (Silo)",
		"Workload", "Total/Tx", "Remaining/Tx", "MaxRemaining", "Reduced%")
	names := []string{"Array", "Btree", "Hash", "Queue", "RBtree", "TPCC-Mix", "YCSB"}
	for _, wl := range names {
		m, _, err := RunMachine(Spec{Design: "Silo", Workload: wl, Cores: 1, Txns: txns, Seed: seed})
		if err != nil {
			return nil, err
		}
		s, ok := m.Design().(*core.Silo)
		if !ok {
			return nil, fmt.Errorf("harness: Fig13 requires the Silo design")
		}
		total, remaining, maxRem := s.LogReduction()
		red := 0.0
		if total > 0 {
			red = (1 - remaining/total) * 100
		}
		t.AddRow(wl,
			fmt.Sprintf("%.1f", total),
			fmt.Sprintf("%.1f", remaining),
			fmt.Sprintf("%d", maxRem),
			fmt.Sprintf("%.1f", red))
	}
	return t, nil
}

// Fig14 runs the large-transaction study: the per-transaction write set is
// scaled to 1–16× the log buffer capacity by repeating each workload's
// operation, and throughput plus media writes are normalized to the 1×
// configuration per benchmark.
func Fig14(cores, txns int, seed int64) (throughput, writes *stats.Table, err error) {
	mults := []int{1, 2, 4, 8, 16}
	cols := []string{"Workload", "1x", "2x", "4x", "8x", "16x"}
	throughput = stats.NewTable("Fig. 14a: normalized throughput vs write-set size (Silo)", cols...)
	writes = stats.NewTable("Fig. 14b: normalized PM media writes vs write-set size (Silo)", cols...)

	for _, wl := range WorkloadNames() {
		// Calibrate: average words written per op at 1 op/tx.
		cal, err := Run(Spec{Design: "Silo", Workload: wl, Cores: 1, Txns: 300, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		wordsPerOp := float64(cal.Stores) / float64(cal.Transactions)
		if wordsPerOp < 1 {
			wordsPerOp = 1
		}
		var thr, wr []float64
		for _, mult := range mults {
			target := float64(mult * logging.DefaultBufferEntries)
			ops := int(target/wordsPerOp + 0.5)
			if ops < 1 {
				ops = 1
			}
			r, err := Run(Spec{Design: "Silo", Workload: wl, Cores: cores, Txns: txns,
				Seed: seed, OpsPerTx: ops})
			if err != nil {
				return nil, nil, err
			}
			// Per-op rates, so the comparison isolates the overflow cost
			// from the transactions simply being bigger.
			thr = append(thr, r.Throughput()*float64(ops))
			wr = append(wr, float64(r.MediaWrites)/float64(r.Transactions)/float64(ops))
		}
		throughput.AddFloats(wl, "%.3f", stats.Normalize(thr, thr[0])...)
		writes.AddFloats(wl, "%.3f", stats.Normalize(wr, wr[0])...)
	}
	return throughput, writes, nil
}

// Fig15 sweeps the log buffer access latency (8–128 cycles) and reports
// Silo's throughput normalized to the 8-cycle configuration.
func Fig15(cores, txns int, seed int64, latencies []sim.Cycle) (*stats.Table, error) {
	if len(latencies) == 0 {
		latencies = []sim.Cycle{8, 16, 32, 64, 96, 128}
	}
	cols := []string{"Workload"}
	for _, l := range latencies {
		cols = append(cols, fmt.Sprintf("%dcy", l))
	}
	t := stats.NewTable("Fig. 15: throughput vs log buffer latency (Silo, normalized to 8 cycles)", cols...)
	for _, wl := range WorkloadNames() {
		var vals []float64
		for _, lat := range latencies {
			r, err := Run(Spec{Design: "Silo", Workload: wl, Cores: cores, Txns: txns,
				Seed: seed, LogBufLatency: lat})
			if err != nil {
				return nil, err
			}
			vals = append(vals, r.Throughput())
		}
		t.AddFloats(wl, "%.3f", stats.Normalize(vals, vals[0])...)
	}
	return t, nil
}

// Table1 renders the hardware overhead of Silo (Table I).
func Table1(entries, cores int) *stats.Table {
	if entries <= 0 {
		entries = logging.DefaultBufferEntries
	}
	o := energy.Overhead(entries)
	t := stats.NewTable("Table I: hardware overhead of Silo", "Component", "Type", "Size")
	t.AddRow("Log buffer", "SRAM",
		fmt.Sprintf("%d entries, %dB per core", entries, o.LogBufferBytesPerCore))
	t.AddRow("64-bit comparators", "CMOS cells",
		fmt.Sprintf("%d comparators per log buffer", o.ComparatorsPerBuffer))
	t.AddRow("Battery", "Lithium thin-film",
		fmt.Sprintf("%.3gmm3 per log buffer", o.BatteryLiMM3PerBuffer))
	t.AddRow("Log head and tail", "Flip-flops",
		fmt.Sprintf("%dB per core", o.HeadTailBytesPerCore))
	return t
}

// Table4 renders the battery requirements of eADR, BBB and Silo (Table IV).
func Table4(cores, entries int) *stats.Table {
	if entries <= 0 {
		entries = logging.DefaultBufferEntries
	}
	hc := cache.DefaultHierarchyConfig()
	cacheBytes := int64(cores)*int64(hc.L1.Size+hc.L2.Size) + int64(hc.L3.Size)
	domains := []energy.Domain{
		energy.EADRDomain(cacheBytes),
		energy.BBBDomain(cores),
		energy.SiloDomain(cores, entries),
	}
	t := stats.NewTable(fmt.Sprintf("Table IV: battery requirements (%d cores)", cores),
		"System", "FlushSize(KB)", "FlushEnergy(uJ)", "Cap(mm3;mm2)", "Li(mm3;mm2)")
	for _, d := range domains {
		cap, li := d.Cap(), d.Li()
		t.AddRow(d.Name,
			fmt.Sprintf("%.4g", float64(d.FlushBytes)/1024),
			fmt.Sprintf("%.4g", d.FlushEnergyMicroJ()),
			fmt.Sprintf("%.3g; %.3g", cap.VolumeMM3, cap.AreaMM2),
			fmt.Sprintf("%.3g; %.3g", li.VolumeMM3, li.AreaMM2))
	}
	return t
}

// Ordering reproduces §II-D / Fig. 3 as a measurement: for every design
// (including the software-logging and pure undo/redo schemes), the average
// cycles a transaction spends stalled on persists at store time and at
// commit time — the two ordering constraints Silo eliminates.
func Ordering(workloadName string, cores, txns int, seed int64) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Ordering constraints on %s (%d cores): stall cycles per transaction", workloadName, cores),
		"Design", "StoreStall/Tx", "CommitStall/Tx", "Throughput(tx/Mcy)")
	for _, d := range ExtendedDesignNames() {
		r, err := Run(Spec{Design: d, Workload: workloadName, Cores: cores, Txns: txns, Seed: seed})
		if err != nil {
			return nil, err
		}
		tx := float64(r.Transactions)
		t.AddRow(d,
			fmt.Sprintf("%.1f", float64(r.StoreStallCycles)/tx),
			fmt.Sprintf("%.1f", float64(r.CommitStallCycles)/tx),
			fmt.Sprintf("%.1f", r.Throughput()))
	}
	return t, nil
}

// Latency reports the commit-stall and whole-transaction latency
// distributions per design — the tail-latency view of the ordering
// constraints (a transaction behind a Base/SWLog design sees every
// persist; behind Silo it sees a fixed ACK).
func Latency(workloadName string, cores, txns int, seed int64) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Commit and transaction latency on %s (%d cores), cycles", workloadName, cores),
		"Design", "CommitMean", "CommitP50", "CommitP99", "TxMean", "TxP99")
	for _, d := range ExtendedDesignNames() {
		m, _, err := RunMachine(Spec{Design: d, Workload: workloadName, Cores: cores, Txns: txns, Seed: seed})
		if err != nil {
			return nil, err
		}
		ch, th := m.CommitHist(), m.TxHist()
		t.AddRow(d,
			fmt.Sprintf("%.1f", ch.Mean()),
			fmt.Sprintf("%d", ch.Percentile(50)),
			fmt.Sprintf("%d", ch.Percentile(99)),
			fmt.Sprintf("%.1f", th.Mean()),
			fmt.Sprintf("%d", th.Percentile(99)))
	}
	return t, nil
}

// EADRStudy reproduces the §II-C argument: software logging on an eADR
// platform avoids the flush instructions but pollutes the caches with an
// append-only log stream. The table contrasts eADR-SW against Silo (and
// plain SWLog on ADR) on throughput, L1 behaviour and PM traffic.
func EADRStudy(workloadName string, cores, txns int, seed int64) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("eADR software logging vs hardware logging on %s (%d cores)", workloadName, cores),
		"Design", "Thr(tx/Mcy)", "L1Miss%", "L1Writes/Tx", "MediaWr/Tx")
	for _, d := range []string{"SWLog", "eADR-SW", "Silo"} {
		r, err := Run(Spec{Design: d, Workload: workloadName, Cores: cores, Txns: txns, Seed: seed})
		if err != nil {
			return nil, err
		}
		miss := 0.0
		if acc := r.L1Hits + r.L1Misses; acc > 0 {
			miss = 100 * float64(r.L1Misses) / float64(acc)
		}
		t.AddRow(d,
			fmt.Sprintf("%.1f", r.Throughput()),
			fmt.Sprintf("%.2f", miss),
			fmt.Sprintf("%.1f", float64(r.L1Hits+r.L1Misses)/float64(r.Transactions)),
			fmt.Sprintf("%.2f", float64(r.MediaWrites)/float64(r.Transactions)))
	}
	return t, nil
}

// RecoverySweep crashes a run at several points and reports the recovery
// work and the verification outcome — §III-G quantified.
func RecoverySweep(design, workloadName string, cores, txns int, seed int64, points []int64) (*stats.Table, error) {
	if len(points) == 0 {
		points = []int64{500, 2000, 8000, 32000}
	}
	t := stats.NewTable(
		fmt.Sprintf("Crash recovery sweep: %s on %s (%d cores)", design, workloadName, cores),
		"CrashAtOp", "Committed", "Records", "Redo", "Undo", "Discarded", "RecoveryUs", "Verified")
	for _, at := range points {
		m, _, err := RunMachine(Spec{Design: design, Workload: workloadName, Cores: cores,
			Txns: txns, Seed: seed, Fault: &fault.Plan{Trigger: fault.TriggerOp, AtOp: at}})
		if err != nil {
			return nil, err
		}
		if !m.Crashed() {
			m.InjectCrash(m.Now())
		}
		rep := recovery.Recover(m.Device(), m.Region())
		bad := 0
		checked := 0
		for _, a := range m.WrittenWords() {
			want, ok := m.GoldenCommitted(a)
			if !ok {
				continue
			}
			checked++
			if m.Device().PeekWord(a) != want {
				bad++
			}
		}
		verdict := fmt.Sprintf("%d/%d ok", checked-bad, checked)
		// Recovery time estimate on the simulated machine: scan every
		// record (PM read) + apply every replay/revoke (PM write), at the
		// Table II latencies and 2 GHz.
		pmCfg := m.Device().Config()
		recCycles := int64(rep.TotalRecords)*int64(pmCfg.ReadLatency) +
			int64(rep.RedoApplied+rep.UndoApplied)*int64(pmCfg.WriteLatency)
		t.AddRow(fmt.Sprintf("%d", at),
			fmt.Sprintf("%d", m.Commits()),
			fmt.Sprintf("%d", rep.TotalRecords),
			fmt.Sprintf("%d", rep.RedoApplied),
			fmt.Sprintf("%d", rep.UndoApplied),
			fmt.Sprintf("%d", rep.Discarded),
			fmt.Sprintf("%.2f", float64(recCycles)/2000),
			verdict)
	}
	return t, nil
}

// CrashScan exhaustively injects a power failure at *every* operation
// index of a run (or every `stride`-th) and verifies atomic durability
// after recovery each time. It returns the number of crash points tested
// and descriptions of any violations — the strongest correctness sweep in
// the repository, feasible because runs are deterministic.
func CrashScan(spec Spec, stride int64) (points int, failures []string, err error) {
	if stride < 1 {
		stride = 1
	}
	// Determine the run length first.
	probe := spec
	probe.Fault = nil
	m0, _, err := RunMachine(probe)
	if err != nil {
		return 0, nil, err
	}
	totalOps := int64(0)
	{
		// Re-derive the op count by recording a trace-less run: use the
		// machine's engine op counters.
		e := m0.Engine(spec.Seed)
		for _, k := range []sim.OpKind{sim.OpLoad, sim.OpStore, sim.OpTxBegin, sim.OpTxEnd, sim.OpCompute} {
			totalOps += e.Ops(k)
		}
	}
	for at := stride; at <= totalOps; at += stride {
		s := spec
		s.Fault = &fault.Plan{Trigger: fault.TriggerOp, AtOp: at}
		m, _, err := RunMachine(s)
		if err != nil {
			return points, failures, err
		}
		if !m.Crashed() {
			m.InjectCrash(m.Now())
		}
		recovery.Recover(m.Device(), m.Region())
		points++
		for _, a := range m.WrittenWords() {
			want, ok := m.GoldenCommitted(a)
			if !ok {
				continue
			}
			if got := m.Device().PeekWord(a); got != want {
				failures = append(failures,
					fmt.Sprintf("crash@%d: %v = %#x want %#x", at, a, uint64(got), uint64(want)))
				if len(failures) > 20 {
					return points, failures, nil
				}
				break
			}
		}
	}
	return points, failures, nil
}

// Hotspot reports the media wear distribution per design: endurance is
// governed not just by total writes (Fig. 11) but by where they land —
// log-as-backup designs hammer the (reused) log region lines while Silo's
// writes follow the data. Skew = hottest line vs mean; the hottest line
// dies Skew× sooner than the average one before wear leveling.
func Hotspot(workloadName string, cores, txns int, seed int64) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Media wear distribution on %s (%d cores)", workloadName, cores),
		"Design", "MediaWrites", "LinesTouched", "MaxLine", "Skew", "HottestIn")
	for _, d := range ExtendedDesignNames() {
		m, r, err := RunMachine(Spec{Design: d, Workload: workloadName, Cores: cores, Txns: txns, Seed: seed})
		if err != nil {
			return nil, err
		}
		m.Device().DrainAll()
		w := m.Device().WearStats()
		region := "data"
		if m.Device().Config().Layout.InLog(w.HottestLine) {
			region = "log"
		}
		skew := 0.0
		if w.MeanWrites > 0 {
			skew = float64(w.MaxWrites) / w.MeanWrites
		}
		t.AddRow(d,
			fmt.Sprintf("%d", r.MediaWrites),
			fmt.Sprintf("%d", w.LinesTouched),
			fmt.Sprintf("%d", w.MaxWrites),
			fmt.Sprintf("%.1f", skew),
			region)
	}
	return t, nil
}

// ConfigTable renders the simulated system configuration (Table II).
func ConfigTable() *stats.Table {
	hc := cache.DefaultHierarchyConfig()
	p := pm.DefaultConfig()
	t := stats.NewTable("Table II: simulated system configuration", "Component", "Configuration")
	t.AddRow("Cores", "x86-64-like, 2 GHz, 1 thread/core")
	t.AddRow("L1 I/D", fmt.Sprintf("private, %dKB, %d-way, %d cycles", hc.L1.Size>>10, hc.L1.Ways, hc.L1.Latency))
	t.AddRow("L2", fmt.Sprintf("private, %dKB, %d-way, %d cycles", hc.L2.Size>>10, hc.L2.Ways, hc.L2.Latency))
	t.AddRow("L3", fmt.Sprintf("shared, %dMB, %d-way, %d cycles", hc.L3.Size>>20, hc.L3.Ways, hc.L3.Latency))
	t.AddRow("Memory controller", fmt.Sprintf("FRFCFS-like, %d-entry WPQ in ADR domain", p.WPQEntries))
	t.AddRow("Log buffer", fmt.Sprintf("%d entries (%dB)/core, FIFO, 8 cycles, battery backed",
		logging.DefaultBufferEntries, logging.DefaultBufferEntries*logging.OnChipEntryBytes))
	t.AddRow("PM", fmt.Sprintf("phase-change memory; read %d / write %d cycles; on-PM buffer %dB lines",
		p.ReadLatency, p.WriteLatency, p.BufLineSize))
	return t
}
