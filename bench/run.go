package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"silo/internal/harness"
	"silo/internal/machine"
	"silo/internal/stats"
)

// options configure one workload run.
type options struct {
	seed     int64
	seconds  float64 // measured wall time of the untraced run (and of the traced one)
	sc       scale
	work     string // scratch directory for fleet stores
	traceDir string // "" runs untraced only
	out      io.Writer
}

// Fleet shape: harness.Torture's default campaign mix, two workers.
const (
	fleetParallel = 2
	setupBuilds   = 8 // campaigns per chunk whose harness.Build is timed for setup_s
	maxProblems   = 20
)

// phase accumulates one measured run of a workload.
type phase struct {
	sp        *spanLog
	busy      time.Duration // wall time of the measured units
	runs      int           // samples (a round of designs on tpcc-designs) or campaigns
	runMs     []float64     // host ms per run
	setupMs   []float64     // host ms per harness.Build / NewControlledRun
	alloc     uint64        // bytes allocated during the phase
	attempted int
	failed    int

	// Host speed (hostspeed.go): the reference kernel's time before the
	// first unit and after each one, each unit's end, and the times above
	// scaled to the reference speed.
	refMs                []float64
	units                []unitMark
	runRefMs, setupRefMs []float64
	busyRefMs            float64
	speed                []float64 // refNominalMs over the reference time, per unit

	// Simulated workloads.
	sampleNsPerOp []float64 // whole sample (build + execute + collect) per simOp
	execNsPerOp   []float64 // RunStreams / Execute span per simOp
	collectMs     []float64
	simOps        int64
	events, drops uint64

	// Fleet.
	chunkRate         []float64 // campaigns per minute per chunk
	encodeNs, writeNs int64
	records           int
	storeBytes        int64
	sealMs, summaryMs []float64
	tort              harness.TortureResult // summed work counts
}

// benchRun is one workload measured in this process.
type benchRun struct {
	w        workloadDef
	o        options
	lock     *lock
	problems []string
	firsts   map[string][]sample // design → first sample of each distinct input
	seen     map[string]bool
	// tpcc-live: host ns per simOp of input 0 on the plain path, the
	// denominator of telemetry.overhead_ratio.
	plainNsPerOp float64
	recycler     *machine.Recycler
	nextOff      int // fleet: next campaign offset
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (b *benchRun) fail(p *phase, n int, why ...string) {
	p.failed += n
	for _, w := range why {
		if len(b.problems) < maxProblems {
			b.problems = append(b.problems, w)
		}
	}
}

// sample runs one simulated spec and folds it into p.
func (b *benchRun) sample(p *phase, spec harness.Spec, parent int) {
	run := runPlain
	if b.w.live {
		run = runLive
	}
	p.attempted++
	s, err := run(spec, p.sp, parent)
	if err != nil {
		b.fail(p, 1, fmt.Sprintf("%s: %v", specKey(spec), err))
		return
	}
	if bad := b.lock.check(specKey(spec), s.fields); len(bad) > 0 {
		b.fail(p, 1, bad...)
		return
	}
	ops := float64(s.simOps())
	p.setupMs = append(p.setupMs, ms(s.build))
	p.sampleNsPerOp = append(p.sampleNsPerOp, float64((s.build+s.execute+s.collect).Nanoseconds())/ops)
	p.execNsPerOp = append(p.execNsPerOp, float64(s.execute.Nanoseconds())/ops)
	if !b.w.live {
		p.collectMs = append(p.collectMs, ms(s.collect))
	}
	p.simOps += s.simOps()
	p.events += s.events
	p.drops += s.drops
	if key := specKey(spec); !b.seen[key] {
		b.seen[key] = true
		b.firsts[spec.Design] = append(b.firsts[spec.Design], s)
	}
}

// simRun is one measured run of a simulated workload: input i mod inputs,
// every design of it.
func (b *benchRun) simRun(p *phase, i int) {
	specs := b.w.specs(b.o.seed, b.o.sc, i%b.o.sc.inputs)
	t0 := time.Now()
	root := p.sp.open("run", -1, i, t0)
	for _, spec := range specs {
		parent := root
		if len(specs) > 1 {
			parent = p.sp.open("sample:"+spec.Design, root, i, time.Now())
		}
		b.sample(p, spec, parent)
		if parent != root {
			p.sp.end(parent, time.Now())
		}
	}
	t1 := time.Now()
	p.sp.end(root, t1)
	p.runMs = append(p.runMs, ms(t1.Sub(t0)))
	p.runs++
}

// timedSink wraps the fleet's checkpoint sink to time Encode and Write.
type timedSink struct {
	inner harness.RecordSink
	p     *phase
	mu    *sync.Mutex
	span  map[int]int // campaign index → its span
}

func (s *timedSink) Encode(r harness.Record) ([]byte, error) {
	t0 := time.Now()
	b, err := s.inner.Encode(r)
	t1 := time.Now()
	s.mu.Lock()
	s.p.encodeNs += t1.Sub(t0).Nanoseconds()
	s.p.sp.add("encode", s.parent(r.Index), t0, t1)
	s.mu.Unlock()
	return b, err
}

func (s *timedSink) Write(r harness.Record, enc []byte) error {
	t0 := time.Now()
	err := s.inner.Write(r, enc)
	t1 := time.Now()
	s.mu.Lock()
	s.p.writeNs += t1.Sub(t0).Nanoseconds()
	s.p.records++
	s.p.sp.add("write", s.parent(r.Index), t0, t1)
	s.mu.Unlock()
	return err
}

// parent is the campaign's span, or -1 when it has none (a campaign that
// panicked never returned to the timing wrapper). Call with mu held.
func (s *timedSink) parent(index int) int {
	if id, ok := s.span[index]; ok {
		return id
	}
	return -1
}

// chunk runs n fleet campaigns from the next offset into an SRS1 store,
// seals it, and checks harness.SummarizeStore against the sweep's own
// result.
func (b *benchRun) chunk(p *phase, seq, n int) error {
	cfg := harness.TortureConfig{Seed: b.o.seed, Campaigns: n, Offset: b.nextOff, Parallel: fleetParallel}
	b.nextOff += n
	for j := 0; j < setupBuilds && j < n; j++ {
		c := harness.MakeCampaign(cfg, cfg.Offset+j)
		plan := c.Plan
		c.Spec.Fault = &plan
		c.Spec.Recycle = b.recycler
		t0 := time.Now()
		m, _, err := harness.Build(c.Spec)
		if err != nil {
			return err
		}
		p.setupMs = append(p.setupMs, ms(time.Since(t0)))
		m.Release()
	}

	path := filepath.Join(b.o.work, fmt.Sprintf("fleet-%d-%d.srs", os.Getpid(), cfg.Offset))
	cs, err := harness.OpenCheckpointSink(path)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var sinkErrs []string
	start := time.Now()
	root := p.sp.open("chunk", -1, seq, start)
	sink := &timedSink{inner: cs, p: p, mu: &mu, span: make(map[int]int)}
	cfg.Sink = sink
	cfg.OnSinkError = func(err error) {
		mu.Lock()
		sinkErrs = append(sinkErrs, err.Error())
		mu.Unlock()
	}
	cfg.Run = func(c harness.Campaign) harness.CampaignOutcome {
		t0 := time.Now()
		out := harness.RunCampaign(c)
		t1 := time.Now()
		mu.Lock()
		p.runMs = append(p.runMs, ms(t1.Sub(t0)))
		sink.span[c.Index] = p.sp.addRun("campaign", root, c.Index, t0, t1)
		mu.Unlock()
		return out
	}
	res, terr := harness.Torture(cfg)
	swept := time.Now()
	serr := cs.Close()
	sealed := time.Now()
	sum, sumErr := harness.SummarizeStore(path)
	summarized := time.Now()
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	os.Remove(path)
	p.sp.add("seal", root, swept, sealed)
	p.sp.add("summarize", root, sealed, summarized)
	p.sp.end(root, summarized)

	p.attempted += n
	p.runs += n
	p.chunkRate = append(p.chunkRate, float64(n)/swept.Sub(start).Minutes())
	p.sealMs = append(p.sealMs, ms(sealed.Sub(swept)))
	p.summaryMs = append(p.summaryMs, ms(summarized.Sub(sealed)))
	p.storeBytes += size
	t := &p.tort
	t.Campaigns += res.Campaigns
	t.MidRunCrashes += res.MidRunCrashes
	t.Commits += res.Commits
	t.RedoApplied += res.RedoApplied
	t.UndoApplied += res.UndoApplied
	t.Quarantined += res.Quarantined
	t.Torn += res.Torn
	t.Restarts += res.Restarts

	var bad []string
	for _, e := range []error{terr, serr, sumErr} {
		if e != nil {
			bad = append(bad, e.Error())
		}
	}
	bad = append(bad, sinkErrs...)
	if len(res.Failures) > 0 || len(res.Infra) > 0 {
		bad = append(bad, fmt.Sprintf("sweep: %d failures, %d infra", len(res.Failures), len(res.Infra)))
	}
	if sum != nil {
		if len(sum.Failures) > 0 || sum.Infra > 0 {
			bad = append(bad, fmt.Sprintf("store: %d failures, %d infra", len(sum.Failures), sum.Infra))
		}
		if sum.Campaigns != res.Campaigns || sum.Commits != res.Commits || sum.MidRun != res.MidRunCrashes {
			bad = append(bad, fmt.Sprintf("store summary (campaigns %d, commits %d, mid-run %d) != sweep (campaigns %d, commits %d, mid-run %d)",
				sum.Campaigns, sum.Commits, sum.MidRun, res.Campaigns, res.Commits, res.MidRunCrashes))
		}
	}
	if len(bad) > 0 {
		b.fail(p, n, fmt.Sprintf("chunk at offset %d: %s", cfg.Offset, strings.Join(bad, "; ")))
	}
	return nil
}

// measure runs units (a simulated run, or a fleet chunk) until seconds
// have passed and at least minUnits ran. Each unit starts, as a fresh
// process would, with no garbage and no pooled machine parts left by the
// previous one: otherwise whether a GC cycle happens to fall between two
// units decides peak memory and whether harness.Build finds its cache
// arrays pooled, and both turn bimodal across seeds. sync.Pool keeps one
// victim generation, hence two collections. They are not part of the
// unit's time. The reference kernel (hostspeed.go) runs before the first
// unit and after each one, not between the collections and the unit: a
// kernel there let the runtime return freed memory to the system, which
// harness.Build then faulted back in, and set-up times turned bimodal.
func (b *benchRun) measure(p *phase, seconds float64, minUnits int) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p.refMs = append(p.refMs, refKernel())
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		runtime.GC()
		runtime.GC()
		t0 := time.Now()
		if b.w.specs != nil {
			b.simRun(p, i)
		} else if err := b.chunk(p, i, b.o.sc.fleetChunk); err != nil {
			return err
		}
		d := time.Since(t0)
		p.refMs = append(p.refMs, refKernel())
		p.busy += d
		p.units = append(p.units, unitMark{runs: len(p.runMs), setups: len(p.setupMs), busy: d})
	}
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.scaleToRef()
	return nil
}

// result is a finished workload run.
type result struct {
	correct             bool
	attempted, failed   int
	rep                 *report
	traced              bool
	againstRef, repeats int // behaviour-lock checks made
}

// runWorkload measures one workload: a discarded warm-up, the untraced
// run every end-to-end metric comes from, and, when tracing, a second
// run of the same length with the CPU profiler and spans on.
func runWorkload(w workloadDef, o options) (result, error) {
	lk, err := newLock()
	if err != nil {
		return result{}, err
	}
	b := &benchRun{w: w, o: o, lock: lk, firsts: make(map[string][]sample), seen: make(map[string]bool),
		recycler: machine.NewRecycler()}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	// Every input runs at least once, so the simulated totals are the
	// same at any speed.
	minUnits := 2
	if w.specs != nil {
		minUnits = o.sc.inputs
	}

	warm := &phase{}
	switch {
	case w.specs == nil:
		if err := b.chunk(warm, -1, o.sc.fleetCold); err != nil {
			return result{}, err
		}
	case w.live:
		// The plain path fixes the reference every live sample of input 0
		// must match, and times the run telemetry.overhead_ratio divides by.
		// The second plain run is timed; the first warms up.
		spec := w.specs(o.seed, o.sc, 0)[0]
		for i := 0; i < 2; i++ {
			warm.attempted++
			s, err := runPlain(spec, nil, -1)
			if err != nil {
				return result{}, err
			}
			if bad := b.lock.check(specKey(spec), s.fields); len(bad) > 0 {
				b.fail(warm, 1, bad...)
			}
			b.plainNsPerOp = float64((s.build + s.execute + s.collect).Nanoseconds()) / float64(s.simOps())
		}
		b.simRun(warm, 0)
	default:
		b.simRun(warm, 0)
	}

	untraced := &phase{}
	seconds := o.seconds
	if o.traceDir != "" {
		seconds /= 2
	}
	if err := b.measure(untraced, seconds, minUnits); err != nil {
		return result{}, err
	}
	rss := peakRSS()

	rep := newReport()
	b.endToEnd(rep, untraced, rss)
	b.details(rep, untraced)

	res := result{rep: rep, traced: o.traceDir != ""}
	res.attempted = warm.attempted + untraced.attempted
	res.failed = warm.failed + untraced.failed
	if o.traceDir != "" {
		traced, err := b.traced(rep, untraced, seconds, minUnits)
		if err != nil {
			return result{}, err
		}
		res.attempted += traced.attempted
		res.failed += traced.failed
	}
	rep.set("failed_share", ratio(float64(res.failed), float64(res.attempted)), "ratio")
	res.correct = res.failed == 0
	res.againstRef, res.repeats = lk.againstRef, lk.repeats
	b.printLock(o.out)
	return res, nil
}

// printLock prints each simulated spec's digest, whether a reference
// exists for it (only the default seed has references), and every
// problem found.
func (b *benchRun) printLock(w io.Writer) {
	keys := make([]string, 0, len(b.lock.seen))
	for k := range b.lock.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ref := "no reference at this seed"
		if _, ok := b.lock.refs[k]; ok {
			ref = "checked against reference"
		}
		fmt.Fprintf(w, "# digest %s %s (%s)\n", k, b.lock.seen[k].digest(), ref)
	}
	if b.w.specs != nil {
		fmt.Fprintf(w, "# behaviour lock: %d samples checked against reference digests, %d against an earlier run of the same spec\n",
			b.lock.againstRef, b.lock.repeats)
	}
	for _, pr := range b.problems {
		fmt.Fprintf(w, "# FAIL %s\n", pr)
	}
}

func (b *benchRun) endToEnd(rep *report, p *phase, rssMB float64) {
	rep.set("run_ms_p50", median(p.runRefMs), "ms")
	rep.set("runs_per_min", 60000*float64(p.runs)/p.busyRefMs, "1/min")
	rep.set("peak_rss_mb", rssMB, "MB")
	rep.set("setup_s", median(p.setupRefMs)/1000, "s")
	rep.set("runs", float64(p.runs), "count")
	rep.set("run_ms_iqr", iqr(p.runRefMs), "ms")
	rep.set("host.speed", median(p.speed), "x")
	rep.set("wall.run_ms_p50", median(p.runMs), "ms")
	rep.set("wall.runs_per_min", 60000*float64(p.runs)/ms(p.busy), "1/min")
	rep.set("wall.setup_s", median(p.setupMs)/1000, "s")
	rep.set("runtime.alloc_kB_per_run", float64(p.alloc)/float64(p.runs)/1000, "kB")
}

// details adds every workload-specific metric: host costs per simulated
// op, boundary timings, the simulated counters of the Silo runs, and the
// fleet's store, recovery and fault counts.
func (b *benchRun) details(rep *report, p *phase) {
	if b.w.specs == nil {
		b.fleetDetails(rep, p)
		return
	}
	rep.set("host_ns_per_simop", median(p.sampleNsPerOp), "ns")
	rep.set("host_ns_per_simop_iqr", iqr(p.sampleNsPerOp), "ns")
	rep.set("sim.run_ns_per_simop", median(p.execNsPerOp), "ns")
	rep.set("harness.build_ms_p50", median(p.setupMs), "ms")
	if len(p.collectMs) > 0 {
		rep.set("harness.collect_ms", median(p.collectMs), "ms")
	}
	rep.set("runtime.alloc_B_per_simop", float64(p.alloc)/float64(p.simOps), "B")
	if b.w.live {
		rep.set("telemetry.events_per_simop", float64(p.events)/float64(p.simOps), "events")
		rep.set("telemetry.drop_share", ratio(float64(p.drops), float64(p.events)), "ratio")
		rep.set("telemetry.overhead_ratio", median(p.sampleNsPerOp)/b.plainNsPerOp, "x")
	}
	silo := total(b.firsts["Silo"])
	tx := float64(silo.run.Transactions)
	r := silo.run
	rep.set("sim_tx_per_mcycle", silo.tput, "tx/Mcycle")
	if lad, ok := b.firsts["LAD"]; ok {
		rep.set("silo_speedup_vs_lad", silo.tput/total(lad).tput, "x")
	}
	rep.set("media_writes_per_tx", float64(r.MediaWrites)/tx, "writes/tx")
	rep.set("commit_stall_cycles_per_tx", float64(r.CommitStallCycles)/tx, "cycles")
	rep.set("sim.cycles_per_tx", float64(r.Cycles)*float64(r.Cores)/tx, "cycles")
	rep.set("cache.l1_hit_ratio", ratio(float64(r.L1Hits), float64(r.L1Hits+r.L1Misses)), "ratio")
	rep.set("cache.l3_miss_per_tx", float64(r.L3Misses)/tx, "misses/tx")
	rep.set("cache.writebacks_per_tx", float64(r.Writebacks)/tx, "lines/tx")
	rep.set("pm.wpq_writes_per_tx", float64(r.WPQWrites)/tx, "writes/tx")
	rep.set("pm.media_writes_per_wpq_write", ratio(float64(r.MediaWrites), float64(r.WPQWrites)), "ratio")
	rep.set("pm.media_bytes_per_tx", float64(r.MediaBytes)/tx, "B/tx")
	rep.set("pm.reads_per_tx", float64(r.PMReads)/tx, "reads/tx")
	rep.set("logging.entries_per_tx", float64(r.LogEntriesCreated)/tx, "entries/tx")
	rep.set("logging.ignored_share", ratio(float64(r.LogEntriesIgnored), float64(r.LogEntriesCreated)), "ratio")
	rep.set("logging.merged_share", ratio(float64(r.LogEntriesMerged), float64(r.LogEntriesCreated)), "ratio")
	rep.set("logging.flushed_per_tx", float64(r.LogEntriesFlushed)/tx, "entries/tx")
	rep.set("logging.overflows_per_tx", float64(r.LogOverflows)/tx, "overflows/tx")
	rep.set("logging.flush_bit_sets_per_tx", float64(r.FlushBitSets)/tx, "entries/tx")
	rep.set("machine.store_stall_cycles_per_tx", float64(r.StoreStallCycles)/tx, "cycles")
	// stats.Histogram percentiles are power-of-two bucket upper edges;
	// the maximum over the run's inputs is reported.
	rep.set("machine.commit_stall_p50_cycles", float64(silo.commitP50), "cycles_pow2_edge")
	rep.set("machine.commit_stall_p99_cycles", float64(silo.commitP99), "cycles_pow2_edge")
	rep.set("machine.tx_latency_p99_cycles", float64(silo.txP99), "cycles_pow2_edge")
}

// simTotal sums a design's samples, one per distinct input.
type simTotal struct {
	run                         stats.Run
	tput                        float64
	commitP50, commitP99, txP99 int64
}

func total(samples []sample) simTotal {
	var t simTotal
	for _, s := range samples {
		d, v := reflect.ValueOf(&t.run).Elem(), reflect.ValueOf(s.run)
		for i := 0; i < d.NumField(); i++ {
			if f := d.Field(i); f.Kind() == reflect.Int64 {
				f.SetInt(f.Int() + v.Field(i).Int())
			}
		}
		t.run.Cores = s.run.Cores
		t.commitP50 = max(t.commitP50, s.commit.Percentile(50))
		t.commitP99 = max(t.commitP99, s.commit.Percentile(99))
		t.txP99 = max(t.txP99, s.tx.Percentile(99))
	}
	t.tput = ratio(float64(t.run.Transactions), float64(t.run.Cycles)) * 1e6
	return t
}

func (b *benchRun) fleetDetails(rep *report, p *phase) {
	t := p.tort
	c := float64(t.Campaigns)
	rep.set("campaigns_per_min", median(p.chunkRate), "1/min")
	rep.set("campaign_ms_p50", median(p.runMs), "ms")
	rep.set("campaign_ms_p99", quantile(p.runMs, 0.99), "ms")
	rep.set("harness.build_ms_p50", median(p.setupMs), "ms")
	rep.set("resultstore.encode_us_per_record", float64(p.encodeNs)/float64(p.records)/1000, "us")
	rep.set("resultstore.write_us_per_record", float64(p.writeNs)/float64(p.records)/1000, "us")
	rep.set("resultstore.seal_ms", median(p.sealMs), "ms")
	rep.set("resultstore.summarize_ms", median(p.summaryMs), "ms")
	rep.set("resultstore.bytes_per_record", float64(p.storeBytes)/float64(p.records), "B")
	rep.set("runtime.alloc_B_per_campaign", float64(p.alloc)/c, "B")
	rep.set("recovery.redo_per_campaign", float64(t.RedoApplied)/c, "records")
	rep.set("recovery.undo_per_campaign", float64(t.UndoApplied)/c, "records")
	rep.set("recovery.quarantined", float64(t.Quarantined), "records")
	rep.set("recovery.restarts_per_campaign", float64(t.Restarts)/c, "restarts")
	rep.set("fault.midrun_share", float64(t.MidRunCrashes)/c, "ratio")
	rep.set("fault.torn_per_campaign", float64(t.Torn)/c, "records")
	rep.set("sim.commits_per_campaign", float64(t.Commits)/c, "tx")
}

// traced reruns the workload with the CPU profiler and spans on, writes
// DIR/<workload>.spans.json and DIR/<workload>.cpu.pprof, and adds each
// layer's CPU share.
func (b *benchRun) traced(rep *report, untraced *phase, seconds float64, minUnits int) (*phase, error) {
	dir := b.o.traceDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, b.w.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	p := &phase{sp: newSpanLog()}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	merr := b.measure(p, seconds, minUnits)
	pprof.StopCPUProfile()
	if err := errors.Join(merr, f.Close()); err != nil {
		return nil, err
	}
	if err := p.sp.write(filepath.Join(dir, b.w.name+".spans.json"), b.w.name); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(profPath)
	if err != nil {
		return nil, err
	}
	prof, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	shares := aggregate(prof)
	out := b.o.out
	fmt.Fprintf(out, "# traced run: %d runs, %d CPU samples, profile %s\n", p.runs, shares.total, profPath)
	for _, l := range layers {
		sh, se := shares.share(l)
		rep.set(l+".cpu_share", 100*sh, "%")
		fmt.Fprintf(out, "# layer %-11s share=%6.2f%% se=%5.2f%% samples=%-6d self_cpu_ms=%.0f\n",
			l, 100*sh, 100*se, shares.samples[l], float64(shares.samples[l]*shares.period)/1e6)
	}
	other, _ := shares.share("other")
	rep.set("profile.named_share", 100*(1-other), "%")
	rep.set("profile.samples", float64(shares.total), "count")
	rep.set("trace.overhead_share", median(p.runRefMs)/median(untraced.runRefMs)-1, "ratio")
	p.sp.printSelf(out)
	return p, nil
}

// peakRSS returns the process's peak resident set (VmHWM) in MB.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
