// Package machine assembles the simulated system: the cache hierarchy, the
// PM device behind the memory controller, and a pluggable logging design.
// It implements sim.Executor, maintains the golden committed-state shadow
// used to verify crash recovery, and provides crash injection.
package machine

import (
	"math/rand"

	"silo/internal/audit"
	"silo/internal/cache"
	"silo/internal/fault"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/telemetry"
	"silo/internal/trace"
)

// Config assembles a machine.
type Config struct {
	Cores  int
	PM     pm.Config
	Cache  cache.HierarchyConfig
	Design logging.Factory
	LogBuf int       // per-core log buffer entries (0 → default 20)
	LogLat sim.Cycle // log buffer access latency (0 → 8)

	// Fault, when non-nil, is the full crash schedule: trigger (op,
	// cycle, commit window, overflow eviction), crash-flush energy
	// budget, and media faults.
	Fault *fault.Plan

	// Trace, when non-nil, records every executed operation.
	Trace *trace.Writer

	// MaxCycles arms the engine's sim-cycle watchdog: a run whose clock
	// reaches this budget is crashed and unwound (0 disables). The
	// torture fleet uses it to kill livelocked campaigns.
	MaxCycles sim.Cycle

	// DisableAudit turns off the runtime invariant layer (benchmarks;
	// the auditor costs host wall-clock, never simulated cycles).
	DisableAudit bool

	// Telemetry, when non-nil, receives typed probe events from every
	// layer of the machine (see internal/telemetry). The enabled audit
	// layer is grafted onto it as an extra sink, so violation trails are
	// built from the same stream. Probes never alter simulated timing or
	// stats.Run results.
	Telemetry *telemetry.Recorder

	// Device, when non-nil, is an existing PM device to assemble the
	// machine over instead of a fresh one — the post-crash reboot path:
	// media contents and wear survive the power cycle while caches and
	// logging hardware come up cold. Callers should Device.PowerCycle()
	// first so stale queue timing from the previous incarnation cannot
	// leak into the new clock. PM (the config) is ignored when set. A
	// Device passed in is never pooled: it stays the caller's across
	// Release, so a reboot chain must build its device itself (pm.New)
	// rather than keep Machine.Device of a machine it released.
	Device *pm.Device

	// Recycle is the pool the machine's heavy structures (PM device
	// tables, golden-shadow index, pending-write tables) come from and
	// return to on Release. Nil means the package's free lists (package
	// pool); a fleet worker passes its own Recycler for cross-campaign
	// reset-in-place reuse. Either way a reused machine is
	// observationally identical to a fresh one.
	Recycle *Recycler
}

// Machine is the simulated system for one run.
type Machine struct {
	cfg    Config
	dev    *pm.Device
	hier   *cache.Hierarchy
	region *logging.RegionWriter
	design logging.Design
	engine *sim.Engine

	ownsDev  bool // device built here (not a caller's reboot device)
	released bool // Release ran; a second one must not pool parts twice

	aud       *audit.Auditor
	bufDesign audit.BufferedDesign // non-nil when design is buffer-based (Silo)
	tel       *telemetry.Recorder  // cfg.Telemetry plus the auditor sink; nil when both are off
	ticker    logging.Ticker       // non-nil when the design wants per-op ticks
	mcReader  logging.MCReader     // non-nil when the design buffers lines at the MC

	inTx    []bool
	pending []*txWrites  // per-core uncommitted writes (golden)
	shadow  *shadowIndex // golden committed/baseline/unsafe state per word

	plan          *fault.Plan
	crashPending  bool  // event trigger matched; crash at the next op
	regionAppends int64 // run-time log appends observed (overflow trigger)

	crashLog *recovery.Log // the crash audit's parse of the log region

	opCount     int64
	commits     int64
	loads       int64
	storesTotal int64
	txStoreAcc  int64 // stores inside committed transactions

	storeStall  int64 // design-induced stall cycles on the store path
	commitStall int64 // design-induced stall cycles at Tx_end

	txBeganAt  []sim.Cycle     // per-core Tx_begin timestamps
	commitHist stats.Histogram // commit-stall distribution
	txHist     stats.Histogram // whole-transaction latency distribution
}

// mcReadLatency is the fill latency when a design's MC buffer (LAD)
// holds the requested line.
const mcReadLatency sim.Cycle = 40

// New builds the machine. Call Engine() to obtain the sim engine.
func New(cfg Config) *Machine {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.LogBuf == 0 {
		cfg.LogBuf = logging.DefaultBufferEntries
	}
	if cfg.LogLat == 0 {
		cfg.LogLat = 8
	}
	dev := cfg.Device
	ownsDev := dev == nil
	if dev == nil {
		dev = cfg.Recycle.device(cfg.PM)
	}
	m := &Machine{
		cfg:     cfg,
		dev:     dev,
		ownsDev: ownsDev,
		inTx:    make([]bool, cfg.Cores),
		shadow:  cfg.Recycle.shadow(),
		pending: make([]*txWrites, cfg.Cores),
	}
	for i := range m.pending {
		m.pending[i] = cfg.Recycle.txWrites()
	}
	m.txBeganAt = make([]sim.Cycle, cfg.Cores)
	m.hier = cache.NewHierarchy(cfg.Cores, cfg.Cache, m.fill, m.writeback)
	m.region = logging.NewRegionWriter(m.dev, cfg.Cores)
	env := &logging.Env{
		PM:            m.dev,
		Cache:         m.hier,
		Region:        m.region,
		Cores:         cfg.Cores,
		LogBufEntries: cfg.LogBuf,
		LogBufLatency: cfg.LogLat,
	}
	m.design = cfg.Design(env)
	if t, ok := m.design.(logging.Ticker); ok {
		m.ticker = t
	}
	if r, ok := m.design.(logging.MCReader); ok {
		m.mcReader = r
	}
	m.aud = audit.New(!cfg.DisableAudit)
	if bd, ok := m.design.(audit.BufferedDesign); ok {
		m.bufDesign = bd
	}
	if m.aud.Enabled() {
		m.region.OnCrashAppend = m.aud.ObserveCrashAppend
	}
	// One recorder feeds external sinks and the audit trail alike; when
	// both are off it stays nil and every probe is a single branch.
	m.tel = cfg.Telemetry
	if m.aud.Enabled() {
		m.tel = m.tel.With(m.aud)
	}
	if m.tel != nil {
		m.hier.SetTelemetry(m.tel)
		m.dev.SetTelemetry(m.tel)
		m.region.Tel = m.tel
		if ins, ok := m.design.(telemetry.Instrumented); ok {
			ins.SetTelemetry(m.tel)
		}
	}
	m.plan = cfg.Fault
	if m.plan != nil && m.plan.Trigger == fault.TriggerOverflow {
		m.region.OnAppend = func(tid, images int) {
			m.regionAppends++
			if m.regionAppends >= m.plan.AfterAppends {
				m.crashPending = true
			}
		}
	}
	return m
}

// Engine returns (building on first use) the sim engine for this machine.
func (m *Machine) Engine(seed int64) *sim.Engine {
	if m.engine == nil {
		m.engine = sim.NewEngine(m, m.cfg.Cores, seed)
		if m.plan != nil && m.plan.Trigger == fault.TriggerCycle {
			m.engine.ScheduleCrash(m.plan.AtCycle, m.InjectCrash)
		}
		if m.cfg.MaxCycles > 0 {
			m.engine.SetWatchdog(m.cfg.MaxCycles)
		}
	}
	return m.engine
}

// Auditor exposes the runtime invariant layer (trail inspection after a
// violation, overhead accounting).
func (m *Machine) Auditor() *audit.Auditor { return m.aud }

// Telemetry exposes the machine's probe-event recorder (nil when neither
// telemetry nor the audit layer is enabled).
func (m *Machine) Telemetry() *telemetry.Recorder { return m.tel }

// WatchdogFired reports whether the sim-cycle watchdog killed the run.
func (m *Machine) WatchdogFired() bool { return m.engine != nil && m.engine.WatchdogFired() }

// Device exposes the PM device (tests and recovery verification).
func (m *Machine) Device() *pm.Device { return m.dev }

// Hierarchy exposes the cache hierarchy.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Region exposes the log-region writer.
func (m *Machine) Region() *logging.RegionWriter { return m.region }

// Design exposes the logging design under test.
func (m *Machine) Design() logging.Design { return m.design }

// Commits returns the number of committed transactions so far.
func (m *Machine) Commits() int64 { return m.commits }

// Crashed reports whether a crash was injected.
func (m *Machine) Crashed() bool { return m.engine != nil && m.engine.Crashed() }

// Release returns the machine's pooled resources for reuse by the next
// machine: the cache hierarchy's per-way arrays and its record arena,
// and — to the machine's Recycler, or the package pools when it has
// none — the PM device it built, the golden-shadow index and the
// pending-write tables, reset in place. Release is the last use of the machine and of
// everything it exposes, its Device included: a pooled device is reset
// and handed to the next machine. A Device passed in through Config
// stays the caller's. A second Release does nothing. Callers that drop a
// machine without Release just fall back to the garbage collector.
func (m *Machine) Release() {
	if m.released {
		return
	}
	m.released = true
	m.hier.Release()
	r := m.cfg.Recycle
	if m.ownsDev {
		r.putDevice(m.dev)
	}
	r.putShadow(m.shadow)
	for _, w := range m.pending {
		r.putTxWrites(w)
	}
}

// Now returns the simulated wall clock.
func (m *Machine) Now() sim.Cycle {
	if m.engine == nil {
		return 0
	}
	return m.engine.Now()
}

// fill reads la's line straight into the cache's record: from the
// design's MC buffer when it holds the line, else from the device.
func (m *Machine) fill(la mem.Addr, now sim.Cycle, dst *[mem.LineSize]byte) sim.Cycle {
	if m.mcReader != nil {
		if data, hit := m.mcReader.MCBuffered(la); hit {
			*dst = data
			return mcReadLatency
		}
	}
	return m.dev.ReadInto(now, la, dst[:])
}

// Peek implements sim.Executor from the golden state alone, never from
// the timed machine: core's pending store to addr while it is in a
// transaction, else the word's last committed or non-transactionally
// stored value, else the device's media (a word this run never stored).
// Each core's data is private (§III-A), so this is the value a load of
// addr by core must execute to, and the program stream's load check
// holds the timed machine to it at every load.
func (m *Machine) Peek(core int, addr mem.Addr) mem.Word {
	if m.inTx[core] {
		if v, ok := m.pending[core].get(addr); ok {
			return v
		}
	}
	if l, w := m.shadow.get(addr); l != nil && l.flags[w]&(shadowHasCommitted|shadowUnsafe) != 0 {
		return l.committed[w]
	}
	return m.dev.PeekWord(addr)
}

func (m *Machine) writeback(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	m.design.CachelineEvicted(now, la, data)
	// §III-D: the eviction just carried this line's data to PM, so every
	// in-flight log entry covering it must now have its flush-bit set.
	if m.bufDesign != nil && m.aud.Enabled() {
		for c := 0; c < m.cfg.Cores; c++ {
			if m.bufDesign.InTx(c) {
				m.aud.CheckFlushBits(c, m.bufDesign.LogBuffer(c), la)
			}
		}
	}
}

// Exec implements sim.Executor.
func (m *Machine) Exec(core int, op sim.Op, now sim.Cycle) sim.Result {
	m.opCount++
	if m.shouldCrash() && m.engine != nil && !m.engine.Crashed() {
		m.InjectCrash(now)
		return sim.Result{Latency: -1}
	}
	if m.cfg.Trace != nil {
		m.cfg.Trace.Op(core, op)
	}
	if m.ticker != nil {
		m.ticker.Tick(now)
	}
	switch op.Kind {
	case sim.OpLoad:
		m.loads++
		w, lat := m.hier.Load(core, op.Addr, now)
		return sim.Result{Latency: lat, Value: w}
	case sim.OpStore:
		m.storesTotal++
		old, lat := m.hier.Store(core, op.Addr, op.Data, now)
		extra := m.design.Store(core, op.Addr, old, op.Data, now+lat)
		m.storeStall += int64(extra)
		if m.bufDesign != nil && m.inTx[core] {
			m.aud.CheckLogBuffer(core, m.bufDesign.LogBuffer(core), m.bufDesign.MergeEnabled(), op.Addr)
		}
		if m.inTx[core] {
			m.pending[core].put(op.Addr, op.Data, m.shadow.recordTx(op.Addr, old))
		} else {
			m.shadow.taint(op.Addr, op.Data)
		}
		return sim.Result{Latency: lat + extra}
	case sim.OpTxBegin:
		m.inTx[core] = true
		m.txBeganAt[core] = now
		m.pending[core].reset()
		m.tel.TxBegin(core, now, m.commits)
		return sim.Result{Latency: 1 + m.design.TxBegin(core, now)}
	case sim.OpTxEnd:
		extra := m.design.TxEnd(core, now)
		m.commitStall += int64(extra)
		m.commitHist.Observe(int64(extra))
		txLat := now + extra - m.txBeganAt[core]
		m.txHist.Observe(int64(txLat))
		m.inTx[core] = false
		m.commits++
		m.txStoreAcc += int64(m.pending[core].len())
		// The probe precedes the audit checks so a violation there is
		// stamped with this commit's cycle and sees it in the trail.
		m.tel.TxCommit(core, now+extra, extra, m.pending[core].len(), txLat)
		if m.aud.Enabled() {
			if m.bufDesign != nil {
				// Log-as-Data: when Tx_end returns, every word of the
				// transaction is already durable (WPQ-accepted in-place
				// update or cacheline eviction). Words also written
				// outside transactions are unverifiable and skipped.
				for _, kv := range m.pending[core].entries {
					if l, w := m.shadow.at(kv.ref); l.flags[w]&shadowUnsafe == 0 {
						m.aud.CheckCommitDurability(core, kv.addr, kv.val, m.dev.PeekWord(kv.addr))
					}
				}
			}
			for ch := 0; ch < m.dev.Channels(); ch++ {
				q := m.dev.WPQ(ch)
				m.aud.CheckWPQ(ch, q.Occupancy(now), q.Capacity())
			}
		}
		for _, kv := range m.pending[core].entries {
			m.shadow.promote(kv.ref, kv.val)
		}
		m.pending[core].reset()
		if m.plan != nil && m.plan.Trigger == fault.TriggerCommit && m.commits >= m.plan.AfterCommits {
			// Crash at the next operation: inside the commit window, with
			// the committed transaction's in-place updates still in flight.
			m.crashPending = true
		}
		return sim.Result{Latency: 1 + extra}
	case sim.OpCompute:
		return sim.Result{Latency: op.Cycles}
	}
	return sim.Result{Latency: 1}
}

// shouldCrash evaluates the fault plan's op-count and event triggers.
// The cycle trigger lives in the engine (ScheduleCrash), which sees
// every scheduling point rather than only this machine's op entries.
func (m *Machine) shouldCrash() bool {
	if m.crashPending {
		return true
	}
	p := m.plan
	return p != nil && p.Trigger == fault.TriggerOp && p.AtOp > 0 && m.opCount >= p.AtOp
}

// InjectCrash models a power failure at time now: the design performs its
// battery-backed flush (§III-G for Silo) under the plan's energy budget,
// the volatile caches vanish — unless the platform battery-backs them
// (eADR/BBB designs), in which case every dirty line is flushed to PM
// first — and the engine unwinds every core. The PM device (media + ADR
// domains) survives untouched, except for the plan's optional bit-flip
// media faults against the log region.
func (m *Machine) InjectCrash(now sim.Cycle) {
	auditing := m.aud.Enabled()
	persistor, _ := m.design.(logging.CachePersistor)
	persistCaches := persistor != nil && persistor.PersistCachesAtCrash()

	// Snapshot the durable data region before the crash sequence runs:
	// power failures must conserve it exactly. Platforms that battery-back
	// the caches may additionally overwrite a word with a value some core
	// had stored (the dirty-line flush); nothing else is legal. The
	// snapshot runs parallel to words, so the audit checks (and names the
	// first violating word) in ascending address order every run.
	var words []mem.Addr
	var before []mem.Word
	var allowed [][]mem.Word
	m.tel.Crash(now, m.commits, m.opCount)
	if auditing {
		m.aud.BeginCrashFlush()
		words = m.WrittenWords()
		before = make([]mem.Word, len(words))
		for i, a := range words {
			before[i] = m.dev.PeekWord(a)
		}
		if persistCaches {
			allowed = make([][]mem.Word, len(words))
			for i, a := range words {
				if l, w := m.shadow.get(a); l != nil {
					if l.flags[w]&shadowHasBaseline != 0 {
						allowed[i] = append(allowed[i], l.baseline[w])
					}
					if l.flags[w]&shadowHasCommitted != 0 {
						allowed[i] = append(allowed[i], l.committed[w])
					}
				}
				for c := range m.pending {
					if v, ok := m.pending[c].get(a); ok {
						allowed[i] = append(allowed[i], v)
					}
				}
			}
		}
	}

	if m.plan != nil {
		m.dev.SetCrashEnergy(m.plan.FlushBudget, m.plan.TearWords, m.plan.StrictBudget)
	}
	m.design.Crash(now)
	if persistCaches {
		m.hier.ForceWriteBackAll(now)
	}
	m.hier.InvalidateAll()

	if auditing {
		if rem, bounded := m.dev.CrashEnergyRemaining(); bounded {
			m.aud.CheckEnergyLedger(rem)
		}
		if m.bufDesign != nil {
			// Table IV sizes the battery reserve for a full buffer of
			// undo logs plus one commit ID tuple, sealed.
			budget := int64(m.cfg.LogBuf)*int64(logging.UndoBytes+logging.SealBytes) +
				int64(logging.CommitBytes+logging.SealBytes)
			for c := 0; c < m.cfg.Cores; c++ {
				m.aud.CheckCriticalBudget(c, budget)
			}
		}
		for i, a := range words {
			var ok []mem.Word
			if allowed != nil {
				ok = allowed[i]
			}
			m.aud.CheckConservation(a, before[i], m.dev.PeekWord(a), ok)
		}
	}

	if m.plan != nil {
		if m.plan.BitFlips > 0 {
			rng := rand.New(rand.NewSource(m.plan.Seed ^ 0x0b17f115))
			fault.FlipLogBits(m.dev, m.region, rng, m.plan.BitFlips)
		}
		// Power is gone; the budget must not throttle recovery's writes.
		m.dev.ClearCrashEnergy()
	}

	// Post-commit durability: every committed word must be reconstructible
	// from what is durable right now — the data region overlaid with the
	// writes a recovery pass would resolve from the log region. Skipped
	// under beyond-spec faults that may legally lose committed work
	// (strict battery budgets, log media bit flips).
	if auditing && (m.plan == nil || (!m.plan.StrictBudget && m.plan.BitFlips == 0)) {
		m.crashLog = recovery.Parse(m.region)
		resolved := m.crashLog.Resolved()
		for _, a := range words {
			want, ok := m.GoldenCommitted(a)
			if !ok {
				continue
			}
			got, has := resolved[a]
			if !has {
				got = m.dev.PeekWord(a)
			}
			m.aud.CheckReconstructible(a, want, got)
		}
	}

	if m.engine != nil {
		m.engine.Crash()
	}
}

// CrashLog returns the parse of the crashed log region that InjectCrash's
// reconstructibility audit made, for recovery to replay. It is nil when
// that audit did not run: auditing off, or a plan with log bit flips or
// a strict energy budget.
func (m *Machine) CrashLog() *recovery.Log { return m.crashLog }

// GoldenCommitted returns the expected durable value of addr after
// recovery: the last committed value, or the pre-first-write baseline.
// ok is false for words the verifier must skip (never written in a
// transaction, or tainted by non-transactional stores).
func (m *Machine) GoldenCommitted(addr mem.Addr) (mem.Word, bool) {
	l, w := m.shadow.get(addr)
	if l == nil || l.flags[w]&shadowUnsafe != 0 {
		return 0, false
	}
	if l.flags[w]&shadowHasCommitted != 0 {
		return l.committed[w], true
	}
	if l.flags[w]&shadowHasBaseline != 0 {
		return l.baseline[w], true
	}
	return 0, false
}

// WrittenWords returns, in ascending address order, every word address
// that participated in any transaction (committed or not) and was never
// stored outside one, for recovery verification sweeps.
func (m *Machine) WrittenWords() []mem.Addr {
	return m.shadow.written()
}

// CommitHist returns the distribution of commit-time stalls.
func (m *Machine) CommitHist() *stats.Histogram { return &m.commitHist }

// TxHist returns the distribution of whole-transaction latencies.
func (m *Machine) TxHist() *stats.Histogram { return &m.txHist }

// Metrics returns the machine's per-commit instruments as one name-sorted
// snapshot: the commit-stall histogram, the commit counter and the
// transaction-latency histogram. It is empty until the first commit.
func (m *Machine) Metrics() []telemetry.MetricValue {
	if m.commits == 0 {
		return nil
	}
	hist := func(name string, h *stats.Histogram) telemetry.MetricValue {
		return telemetry.MetricValue{
			Name: name, Kind: "histogram",
			Value: h.Count(), Max: h.Max(),
			P50: float64(h.Percentile(50)), P99: float64(h.Percentile(99)), Mean: h.Mean(),
		}
	}
	return []telemetry.MetricValue{
		hist("commit-stall-cycles", &m.commitHist),
		{Name: "commits", Kind: "counter", Value: m.commits},
		hist("tx-latency-cycles", &m.txHist),
	}
}

// CollectStats drains every component's counters into one run record.
// It finalizes media accounting by draining the on-PM buffer.
func (m *Machine) CollectStats(design, workload string) stats.Run {
	m.dev.DrainAll()
	ds := m.dev.Stats()
	r := stats.Run{
		Design:       design,
		Workload:     workload,
		Cores:        m.cfg.Cores,
		Transactions: m.commits,
		Loads:        m.loads,
		Stores:       m.storesTotal,
		MediaWrites:  ds.MediaWrites,
		MediaBytes:   ds.MediaBytes,
		WPQWrites:    ds.WPQWrites,
		WPQBytes:     ds.WPQBytes,
		PMReads:      ds.Reads,
		Writebacks:   m.hier.Writebacks,

		StoreStallCycles:  m.storeStall,
		CommitStallCycles: m.commitStall,
	}
	if m.engine != nil {
		r.Cycles = int64(m.engine.Now())
	}
	for i := 0; i < m.cfg.Cores; i++ {
		r.L1Hits += m.hier.L1(i).Hits
		r.L1Misses += m.hier.L1(i).Misses
		r.L2Hits += m.hier.L2(i).Hits
		r.L2Misses += m.hier.L2(i).Misses
	}
	r.L3Hits = m.hier.L3().Hits
	r.L3Misses = m.hier.L3().Misses
	m.design.CollectStats(&r)
	return r
}
