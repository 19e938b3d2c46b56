// Package serve is the live observability server behind cmd/silo-serve:
// it runs simulations and cluster scenarios on demand from HTTP
// requests, streams their telemetry over Server-Sent Events through a
// bounded telemetry.LiveSink, exposes Prometheus-format metrics, and
// supports on-demand ("pull the plug") crash injection with the recovery
// phases streamed back as events.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"silo/internal/cluster"
	"silo/internal/fault"
	"silo/internal/harness"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/telemetry"
)

// Run states. Terminal states are done, recovered, stopped and failed.
const (
	StateRunning   = "running"
	StateCrashed   = "crashed"   // crash injected; recovery replay in progress
	StateRecovered = "recovered" // crash + recovery complete (terminal)
	StateDone      = "done"      // completed without an injected crash (terminal)
	StateStopped   = "stopped"   // stopped on request, no crash semantics (terminal)
	StateFailed    = "failed"    // build error, infra failure, audit violation (terminal)
)

// Params is the request body of POST /api/runs. Zero fields take the
// preset's value (when Preset is set) and then the defaults below.
type Params struct {
	Preset string `json:"preset,omitempty"`
	Kind   string `json:"kind,omitempty"` // "sim" (default) or "cluster"

	Design   string `json:"design,omitempty"`   // default Silo
	Workload string `json:"workload,omitempty"` // default Btree (sim runs)
	Cores    int    `json:"cores,omitempty"`    // default 2
	Txns     int    `json:"txns,omitempty"`     // default 4000
	Seed     int64  `json:"seed,omitempty"`     // default 42

	// Table II knobs.
	OpsPerTx      int   `json:"ops_per_tx,omitempty"`
	LogBufEntries int   `json:"logbuf_entries,omitempty"`
	LogBufLatency int64 `json:"logbuf_latency,omitempty"`

	// FlushBudget bounds the battery energy (bytes) of an injected
	// crash's flush, the paper's §III-G budget; 0 = unbounded.
	FlushBudget int64 `json:"flush_budget,omitempty"`

	// Cluster runs.
	Nodes       int    `json:"nodes,omitempty"`    // default 4
	Requests    int    `json:"requests,omitempty"` // default 4000
	Replicas    int    `json:"replicas,omitempty"` // default 1
	Replication string `json:"replication,omitempty"`

	// CyclesPerSec throttles the simulation toward a wall-clock rate so
	// the dashboard charts move at human speed (0 = run flat out).
	CyclesPerSec int64 `json:"cycles_per_sec,omitempty"`

	// Buffer is the LiveSink ring capacity (0 = default).
	Buffer int `json:"buffer,omitempty"`
}

func (p *Params) defaults() {
	if p.Kind == "" {
		p.Kind = "sim"
	}
	if p.Design == "" {
		p.Design = "Silo"
	}
	if p.Workload == "" {
		p.Workload = "Btree"
	}
	if p.Cores == 0 {
		p.Cores = 2
	}
	if p.Txns == 0 {
		p.Txns = 4000
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.Nodes == 0 {
		p.Nodes = 4
	}
	if p.Requests == 0 {
		p.Requests = 4000
	}
}

// WindowInfo is one crash window of a cluster run, phase-split.
type WindowInfo struct {
	Node          int   `json:"node"`
	WidthCycles   int64 `json:"width_cycles"`
	DetectCycles  int64 `json:"detect_cycles"`
	PromoteCycles int64 `json:"promote_cycles"`
	ResyncCycles  int64 `json:"resync_cycles"`
	Strikes       int   `json:"strikes"`
}

// ClusterSummary condenses a cluster.Result for the API.
type ClusterSummary struct {
	Generated   int64        `json:"generated"`
	Acked       int64        `json:"acked"`
	Failed      int64        `json:"failed"`
	Available   float64      `json:"available"`
	Crashes     int          `json:"crashes"`
	Promotions  int          `json:"promotions"`
	AckedLost   int64        `json:"acked_lost"`
	Windows     []WindowInfo `json:"windows,omitempty"`
	Divergences []string     `json:"divergences,omitempty"`
}

// RecoverySummary condenses a recovery.Report for the API.
type RecoverySummary struct {
	CommittedTx  int  `json:"committed_tx"`
	RedoApplied  int  `json:"redo_applied"`
	UndoApplied  int  `json:"undo_applied"`
	Discarded    int  `json:"discarded"`
	Quarantined  int  `json:"quarantined"`
	TotalRecords int  `json:"total_records"`
	Complete     bool `json:"complete"`
}

// Info is the JSON view of one run.
type Info struct {
	ID       int       `json:"id"`
	Kind     string    `json:"kind"`
	State    string    `json:"state"`
	Params   Params    `json:"params"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished,omitzero"`
	Error    string    `json:"error,omitempty"`

	Events  uint64 `json:"events"`  // telemetry events published to subscribers so far
	Dropped uint64 `json:"dropped"` // events dropped across SSE subscribers

	Sim      *stats.Run       `json:"sim,omitempty"`
	Recovery *RecoverySummary `json:"recovery,omitempty"`
	Cluster  *ClusterSummary  `json:"cluster,omitempty"`
}

// Run is one hosted simulation.
type Run struct {
	id     int
	kind   string
	params Params
	sink   *telemetry.LiveSink

	mu       sync.Mutex
	state    string
	err      string
	started  time.Time
	finished time.Time
	metrics  []telemetry.MetricValue // final machine metrics (terminal sim runs)
	sim      *stats.Run
	recov    *RecoverySummary
	clust    *ClusterSummary

	crashFn func(node int) // non-nil while crash injection is possible
	stopFn  func()
}

// Sink exposes the run's live event ring for SSE subscribers.
func (r *Run) Sink() *telemetry.LiveSink { return r.sink }

// ID returns the run's id.
func (r *Run) ID() int { return r.id }

// State returns the current lifecycle state.
func (r *Run) State() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *Run) setState(s string) {
	r.mu.Lock()
	r.state = s
	r.mu.Unlock()
}

func (r *Run) finish(state, errMsg string, metrics []telemetry.MetricValue) {
	r.mu.Lock()
	r.state = state
	r.err = errMsg
	r.finished = time.Now()
	r.metrics = metrics
	r.crashFn = nil
	r.stopFn = nil
	r.mu.Unlock()
	r.sink.Close()
}

// Terminal reports whether the run reached a terminal state.
func (r *Run) Terminal() bool {
	switch r.State() {
	case StateDone, StateRecovered, StateStopped, StateFailed:
		return true
	}
	return false
}

// Crash requests an on-demand power failure: the whole machine for sim
// runs; for cluster runs node selects the victim (< 0 = lowest-numbered
// live node). It fails once the run is terminal.
func (r *Run) Crash(node int) error {
	r.mu.Lock()
	fn := r.crashFn
	r.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("run %d is %s; no crash target", r.id, r.State())
	}
	fn(node)
	return nil
}

// Stop requests a graceful unwind (sim runs only).
func (r *Run) Stop() error {
	r.mu.Lock()
	fn := r.stopFn
	r.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("run %d is %s; cannot stop", r.id, r.State())
	}
	fn()
	return nil
}

// Info snapshots the run for the API.
func (r *Run) Info() Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Info{
		ID: r.id, Kind: r.kind, State: r.state, Params: r.params,
		Started: r.started, Finished: r.finished, Error: r.err,
		Events: r.sink.Seq(), Dropped: r.sink.Drops(),
		Sim: r.sim, Recovery: r.recov, Cluster: r.clust,
	}
}

// MetricsSnapshot returns the run's final per-commit metrics: the
// machine's instruments for a sim run that committed, nil until a
// terminal state, before the first commit, and for cluster runs.
func (r *Run) MetricsSnapshot() []telemetry.MetricValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics
}

// Manager owns the run table.
type Manager struct {
	mu      sync.Mutex
	runs    map[int]*Run
	nextID  int
	started int64
}

// NewManager returns an empty run table.
func NewManager() *Manager {
	return &Manager{runs: make(map[int]*Run), nextID: 1}
}

// Get returns a run by id.
func (m *Manager) Get(id int) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// Runs returns every run sorted by id.
func (m *Manager) Runs() []*Run {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Run, 0, len(m.runs))
	for _, r := range m.runs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Started returns the number of runs ever started.
func (m *Manager) Started() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.started
}

// pacer builds a Tick/pacer callback that sleeps the driving goroutine
// so simulated time advances at ~cyclesPerSec. Sleeps are capped so
// crash requests stay responsive. Before each sleep it flushes sink's
// pending batch, so subscribers see every event up to the pause.
func pacer(sink *telemetry.LiveSink, cyclesPerSec int64) func(now sim.Cycle) {
	start := time.Now()
	return func(now sim.Cycle) {
		target := time.Duration(float64(now) / float64(cyclesPerSec) * float64(time.Second))
		if d := target - time.Since(start); d > 0 {
			if d > 50*time.Millisecond {
				d = 50 * time.Millisecond
			}
			sink.Flush()
			time.Sleep(d)
		}
	}
}

// Start resolves params (preset, defaults), builds the run, and launches
// it on its own goroutine.
func (m *Manager) Start(p Params) (*Run, error) {
	if p.Preset != "" {
		base, ok := Preset(p.Preset)
		if !ok {
			return nil, fmt.Errorf("unknown preset %q", p.Preset)
		}
		p = overlay(base.Params, p)
	}
	p.defaults()

	sink := telemetry.NewLiveSink(p.Buffer)
	rec := telemetry.NewRecorder(sink)
	run := &Run{kind: p.Kind, params: p, sink: sink, state: StateRunning, started: time.Now()}

	switch p.Kind {
	case "sim":
		spec := harness.Spec{
			Design:        p.Design,
			Workload:      p.Workload,
			Cores:         p.Cores,
			Txns:          p.Txns,
			Seed:          p.Seed,
			OpsPerTx:      p.OpsPerTx,
			LogBufEntries: p.LogBufEntries,
			LogBufLatency: sim.Cycle(p.LogBufLatency),
			Telemetry:     rec,
		}
		if p.FlushBudget > 0 {
			spec.Fault = &fault.Plan{Trigger: fault.TriggerNone, FlushBudget: int(p.FlushBudget)}
		}
		cr, err := harness.NewControlledRun(spec)
		if err != nil {
			return nil, err
		}
		if p.CyclesPerSec > 0 {
			cr.Tick = pacer(sink, p.CyclesPerSec)
		}
		crashed := false
		run.crashFn = func(int) {
			run.mu.Lock()
			crashed = true
			run.mu.Unlock()
			cr.RequestCrash()
		}
		run.stopFn = cr.RequestStop
		m.add(run)
		go m.driveSim(run, cr, rec, &crashed)
	case "cluster":
		cfg := cluster.Config{
			Seed:     p.Seed,
			Design:   p.Design,
			Nodes:    p.Nodes,
			Requests: p.Requests,
			Replicas: p.Replicas,
		}
		if p.Replication != "" {
			mode, err := cluster.ParseReplicationMode(p.Replication)
			if err != nil {
				return nil, err
			}
			cfg.Replication = mode
		}
		cfg.Telemetry = rec
		cl, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		if p.CyclesPerSec > 0 {
			cl.SetPacer(pacer(sink, p.CyclesPerSec))
		}
		crashed := false
		run.crashFn = func(node int) {
			run.mu.Lock()
			crashed = true
			run.mu.Unlock()
			cl.RequestCrash(node)
		}
		m.add(run)
		go m.driveCluster(run, cl, &crashed)
	default:
		return nil, fmt.Errorf("unknown run kind %q (want sim or cluster)", p.Kind)
	}
	return run, nil
}

func (m *Manager) add(r *Run) {
	m.mu.Lock()
	r.id = m.nextID
	m.nextID++
	m.started++
	m.runs[r.id] = r
	m.mu.Unlock()
}

// driveSim executes a controlled single-machine run and, after an
// injected crash, replays recovery with telemetry attached so the scan
// and apply phases stream to subscribers. It flushes the sink once
// Execute returns, so the crash event streams before recovery replays.
func (m *Manager) driveSim(run *Run, cr *harness.ControlledRun, rec *telemetry.Recorder, crashed *bool) {
	res, err := cr.Execute()
	run.sink.Flush()
	if err != nil {
		run.finish(StateFailed, err.Error(), cr.Machine().Metrics())
		return
	}
	run.mu.Lock()
	run.sim = &res
	wasCrashed := *crashed && cr.Machine().Crashed()
	wasStopped := !wasCrashed && cr.Machine().Crashed()
	run.mu.Unlock()

	if wasCrashed {
		run.setState(StateCrashed)
		mach := cr.Machine()
		rep := recovery.Parse(mach.Region()).Apply(mach.Device(), recovery.Options{
			Telemetry: rec,
			Now:       mach.Now(),
		})
		run.mu.Lock()
		run.recov = &RecoverySummary{
			CommittedTx: rep.CommittedTx, RedoApplied: rep.RedoApplied,
			UndoApplied: rep.UndoApplied, Discarded: rep.Discarded,
			Quarantined: rep.Quarantined, TotalRecords: rep.TotalRecords,
			Complete: rep.Complete,
		}
		run.mu.Unlock()
		run.finish(StateRecovered, "", cr.Machine().Metrics())
		return
	}
	if wasStopped {
		run.finish(StateStopped, "", cr.Machine().Metrics())
		return
	}
	run.finish(StateDone, "", cr.Machine().Metrics())
}

// driveCluster executes a cluster scenario; node crashes (scheduled or
// injected) stream their detect/promote/resync phases as node-state and
// recovery probe events.
func (m *Manager) driveCluster(run *Run, cl *cluster.Cluster, crashed *bool) {
	res := cl.Drive()
	sum := &ClusterSummary{
		Generated: res.Generated, Acked: res.Acked, Failed: res.Failed,
		Available: res.Available(), Crashes: res.Crashes,
		Promotions: res.Promotions, AckedLost: res.AckedLost,
		Divergences: res.Divergences,
	}
	for _, w := range res.Windows {
		sum.Windows = append(sum.Windows, WindowInfo{
			Node:          w.Node,
			WidthCycles:   int64(w.Width()),
			DetectCycles:  int64(w.Detect()),
			PromoteCycles: int64(w.Promote()),
			ResyncCycles:  int64(w.Resync()),
			Strikes:       w.Strikes,
		})
	}
	run.mu.Lock()
	run.clust = sum
	wasCrashed := *crashed || res.Crashes > 0
	run.mu.Unlock()
	switch {
	case res.Err != nil:
		run.finish(StateFailed, res.Err.Error(), nil)
	case len(res.Divergences) > 0:
		run.finish(StateFailed, fmt.Sprintf("%d divergence(s)", len(res.Divergences)), nil)
	case wasCrashed:
		run.finish(StateRecovered, "", nil)
	default:
		run.finish(StateDone, "", nil)
	}
}

// overlay returns base with every non-zero field of over applied on top.
func overlay(base, over Params) Params {
	out := base
	out.Preset = over.Preset
	if over.Kind != "" {
		out.Kind = over.Kind
	}
	if over.Design != "" {
		out.Design = over.Design
	}
	if over.Workload != "" {
		out.Workload = over.Workload
	}
	if over.Cores != 0 {
		out.Cores = over.Cores
	}
	if over.Txns != 0 {
		out.Txns = over.Txns
	}
	if over.Seed != 0 {
		out.Seed = over.Seed
	}
	if over.OpsPerTx != 0 {
		out.OpsPerTx = over.OpsPerTx
	}
	if over.LogBufEntries != 0 {
		out.LogBufEntries = over.LogBufEntries
	}
	if over.LogBufLatency != 0 {
		out.LogBufLatency = over.LogBufLatency
	}
	if over.FlushBudget != 0 {
		out.FlushBudget = over.FlushBudget
	}
	if over.Nodes != 0 {
		out.Nodes = over.Nodes
	}
	if over.Requests != 0 {
		out.Requests = over.Requests
	}
	if over.Replicas != 0 {
		out.Replicas = over.Replicas
	}
	if over.Replication != "" {
		out.Replication = over.Replication
	}
	if over.CyclesPerSec != 0 {
		out.CyclesPerSec = over.CyclesPerSec
	}
	if over.Buffer != 0 {
		out.Buffer = over.Buffer
	}
	return out
}
