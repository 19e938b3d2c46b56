package cluster

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"silo/internal/core"
	"silo/internal/fault"
	"silo/internal/mem"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/telemetry"
	"silo/internal/workload"
)

// Config parameterizes one cluster run. The zero value of any field is
// replaced by the defaults below; a Config fully determines the run.
type Config struct {
	Seed   int64
	Design string // logging design name (harness registry; default "Silo")

	Nodes    int    // shard servers (default 4)
	VNodes   int    // virtual ring points per node (default 16)
	Requests int    // client requests to generate (default 2000)
	Keys     uint64 // keyspace size (default 4096)

	// Client load shape (see workload.KVLoadConfig).
	Tenants        int
	ReadPercent    int     // default 60
	ZipfS          float64 // default 1.07
	MeanGap        float64 // per-tenant mean inter-arrival, cycles (default 1200)
	ReadRecentBias int     // % of reads chasing the tenant's recent writes
	DiurnalPeriod  sim.Cycle
	DiurnalAmp     float64

	// Network/RPC cost model. All times are simulated cycles (2 GHz:
	// 2000 cycles = 1 µs).
	HopLatency  sim.Cycle // one-way hop (default 2000)
	HopJitter   sim.Cycle // uniform extra per hop (default 400)
	Timeout     sim.Cycle // client attempt timeout (default 300_000)
	Retries     int       // retries after the first attempt (default 3)
	BackoffBase sim.Cycle // retry backoff base, doubling + jitter (default 20_000)
	QueueCap    int       // per-node waiting-request bound (default 64)

	// ServiceOverhead is the fixed per-request cost outside the machine
	// execution — parse, dispatch, reply marshalling (default 600).
	ServiceOverhead sim.Cycle

	// Failure/recovery cost model.
	DetectDelay      sim.Cycle // router failure-detection lag (default 30_000)
	RebootDelay      sim.Cycle // power-on to replay start (default 50_000)
	RecoverPerRecord sim.Cycle // replay cost per scanned log record (default 300)
	RecoverPerWrite  sim.Cycle // replay cost per applied word (default 150)

	// Replication. Replicas is the replica-set size R — each key lives
	// on the first R distinct ring nodes (default 1: no replication,
	// exactly the pre-replication behavior). Replication selects sync
	// (ack after all live replicas applied) or bounded-async (ack after
	// the primary commit; replicas apply AsyncDelay later, and acked
	// writes lost to a primary crash are counted, not hidden).
	Replicas    int
	Replication ReplicationMode

	// PromoteDelay is the router's promotion lag after detection: once a
	// node is marked down, the next live replica takes over this many
	// cycles later (default 4000 = 2 µs). ResyncBase + ResyncPerEntry
	// model the rebooted node's catch-up stream setup and per-entry
	// apply/transfer cost (defaults 10_000 and 200); AsyncDelay is the
	// bounded-async replication lag (default 10_000 = 5 µs).
	PromoteDelay   sim.Cycle
	ResyncBase     sim.Cycle
	ResyncPerEntry sim.Cycle
	AsyncDelay     sim.Cycle

	// Plan is the cluster fault schedule (nil = fault-free).
	Plan *fault.ClusterPlan

	DisableAudit bool
	Telemetry    *telemetry.Recorder

	// MaxEvents bounds the event loop against harness bugs (0 → scaled
	// to the request count). Exceeding it is an infra failure.
	MaxEvents int64
}

func (cfg *Config) defaults() {
	if cfg.Design == "" {
		cfg.Design = "Silo"
	}
	if cfg.Nodes < 1 {
		cfg.Nodes = 4
	}
	if cfg.VNodes < 1 {
		cfg.VNodes = 16
	}
	if cfg.Requests < 1 {
		cfg.Requests = 2000
	}
	if cfg.Keys < 2 {
		cfg.Keys = 4096
	}
	if cfg.Tenants < 1 {
		cfg.Tenants = 3
	}
	if cfg.ReadPercent == 0 {
		cfg.ReadPercent = 60
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.07
	}
	if cfg.MeanGap == 0 {
		cfg.MeanGap = 1200
	}
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 2000
	}
	if cfg.HopJitter == 0 {
		cfg.HopJitter = 400
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 300_000
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 20_000
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 64
	}
	if cfg.ServiceOverhead == 0 {
		cfg.ServiceOverhead = 600
	}
	if cfg.DetectDelay == 0 {
		cfg.DetectDelay = 30_000
	}
	if cfg.RebootDelay == 0 {
		cfg.RebootDelay = 50_000
	}
	if cfg.RecoverPerRecord == 0 {
		cfg.RecoverPerRecord = 300
	}
	if cfg.RecoverPerWrite == 0 {
		cfg.RecoverPerWrite = 150
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Nodes {
		cfg.Replicas = cfg.Nodes
	}
	if cfg.PromoteDelay == 0 {
		cfg.PromoteDelay = 4000
	}
	if cfg.ResyncBase == 0 {
		cfg.ResyncBase = 10_000
	}
	if cfg.ResyncPerEntry == 0 {
		cfg.ResyncPerEntry = 200
	}
	if cfg.AsyncDelay == 0 {
		cfg.AsyncDelay = 10_000
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 400*int64(cfg.Requests) + 100_000
	}
}

// LoadHorizon estimates when request generation ends — the window fault
// schedules should land inside.
func (cfg Config) LoadHorizon() sim.Cycle {
	c := cfg
	c.defaults()
	perTenant := float64(c.Requests) / float64(c.Tenants)
	return sim.Cycle(perTenant * c.MeanGap)
}

// CrashWindow is one node outage's availability record. Consecutive
// strikes with no successful service in between (a node crashing again
// during reboot, replay, or catch-up) merge into one continuous window:
// Strikes counts them, DownAt is the first power failure, and the
// phase marks below track the final strike's recovery.
type CrashWindow struct {
	Node   int
	DownAt sim.Cycle
	// ServingAt is when the recovered node completed its first request
	// of the next incarnation; [DownAt, ServingAt] is the old owner's
	// full outage. When load ended before the node served again, Closed
	// is false and ServingAt clamps to FinalCycle.
	ServingAt sim.Cycle
	Closed    bool
	Strikes   int
	// Phase marks (zero = the phase never happened before the window
	// resolved): the failure detector firing, the router promoting the
	// next live replica (Replicas > 1), the final strike's reboot+replay
	// completing, and the catch-up resync finishing.
	DetectedAt  sim.Cycle
	PromotedAt  sim.Cycle
	RecoveredAt sim.Cycle
	ResyncEnd   sim.Cycle
	// FailoverAt is the first completion another replica of one of this
	// node's keys served inside the window — evidence the keys stayed
	// available (Replicas > 1).
	FailoverAt sim.Cycle
	// CommitsElsewhere counts transactions committed by surviving nodes
	// inside the window — nonzero means the cluster kept serving.
	CommitsElsewhere int64
}

// Width returns the client-visible unavailability: with replication the
// window ends at promotion (replicas serve from there on); without it —
// or when the node returned before promotion — it ends when the owner
// served again.
func (w CrashWindow) Width() sim.Cycle {
	if w.PromotedAt > 0 {
		return w.PromotedAt - w.DownAt
	}
	return w.ServingAt - w.DownAt
}

// OwnerOutage returns the crashed node's full time out of the ring.
func (w CrashWindow) OwnerOutage() sim.Cycle { return w.ServingAt - w.DownAt }

// Detect returns the detection phase (crash → detector fired).
func (w CrashWindow) Detect() sim.Cycle {
	if w.DetectedAt == 0 {
		return 0
	}
	return w.DetectedAt - w.DownAt
}

// Promote returns the promotion phase (detector fired → failover done).
func (w CrashWindow) Promote() sim.Cycle {
	if w.PromotedAt == 0 || w.DetectedAt == 0 {
		return 0
	}
	return w.PromotedAt - w.DetectedAt
}

// Resync returns the background catch-up phase (replay done → rejoined
// the ring), which no longer blocks client traffic under replication.
func (w CrashWindow) Resync() sim.Cycle {
	if w.ResyncEnd == 0 || w.RecoveredAt == 0 {
		return 0
	}
	return w.ResyncEnd - w.RecoveredAt
}

// NodeStats summarizes one node's run.
type NodeStats struct {
	Served  int64
	Commits int64
	Crashes int
}

// Result is everything one cluster run produced.
type Result struct {
	Design   string
	Nodes    int
	Replicas int
	Mode     ReplicationMode

	Generated int64 // client requests created
	Gets      int64
	Puts      int64
	Acked     int64 // requests acknowledged to the client
	AckedPuts int64
	Failed    int64 // requests exhausted their retry budget

	CommittedPuts int64 // Tx_end completions across all nodes (incl. unacked and duplicates)

	Timeouts  int64 // client attempt timeouts
	Sheds     int64 // requests refused by a full node queue
	FastFails int64 // router fast-fails to a node marked down
	Resets    int64 // queued requests bounced by a node crash
	Retries   int64 // attempts beyond the first
	Late      int64 // responses arriving after the request was resolved

	Latency stats.Histogram // acked-request client latency, cycles

	Crashes          int
	Windows          []CrashWindow
	Recovery         recovery.Report // summed over all node recoveries
	RecoveryRestarts int
	Torn             int64
	Dropped          int64

	// Replication counters (Replicas > 1).
	ReplSent      int64 // replication messages sent
	ReplApplied   int64 // apply transactions committed on replicas
	ReplStale     int64 // messages superseded by a newer applied version
	ReplDropped   int64 // messages discarded at a down/wedged replica
	Promotions    int   // failovers the router completed
	ResyncEntries int64 // catch-up diff entries applied by rebooted nodes
	AckedLost     int64 // async mode: acked writes no live replica held at a crash

	Divergences []string // cluster-shadow + per-node golden-shadow verdicts

	PerNode    []NodeStats
	FinalCycle sim.Cycle

	Err   error
	Infra bool // Err is a harness/resource failure, not a verdict
}

// Available reports the fraction of generated requests that were acked.
func (r *Result) Available() float64 {
	if r.Generated == 0 {
		return 1
	}
	return float64(r.Acked) / float64(r.Generated)
}

// event kinds of the cluster DES.
type evKind uint8

const (
	evArrive     evKind = iota // a tenant's next request materializes at the router
	evRetry                    // a client re-sends after backoff
	evNodeRecv                 // a request reaches its shard server
	evNodeDone                 // the server finished executing a request
	evResp                     // a response (or reset) reaches the client
	evTimeout                  // a client attempt timer fires
	evCrash                    // a scheduled node power failure
	evRecovered                // a node finished reboot + replay
	evHealthDown               // the router's failure detector marks a node down
	evReplRecv                 // a replication message reaches a replica
	evReplDone                 // a replica finished applying a replication message
	evReplAck                  // a replica's apply ack reaches the committing member
	evPromote                  // the router promotes the next live replica of a down node
	evResynced                 // a rebooted node finished catch-up and re-enters the ring
)

// response kinds carried in evResp's arg.
const (
	respOK = iota
	respShed
	respUnavail
	respReset
)

type request struct {
	id        int64
	tenant    int
	key       uint64
	read      bool
	val       uint64 // put payload (globally unique write sequence)
	node      int    // owner at last routing
	attempt   int
	firstSend sim.Cycle
	done      bool
	committed bool
	loaded    uint64
}

type event struct {
	at   sim.Cycle
	seq  int64 // tie-break: events at equal time fire in schedule order
	kind evKind
	node int // node id, tenant id (evArrive), or -1
	req  *request
	arg  int
	repl *replMsg // replication payload (evReplRecv/evReplDone/evReplAck)
	ver  uint64   // commit version riding evNodeDone/evResp for acked Puts
}

// eventQueue is a binary min-heap over (at, seq).
type eventQueue []event

func (q eventQueue) lessAt(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	i := len(*q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.lessAt(i, p) {
			break
		}
		(*q)[i], (*q)[p] = (*q)[p], (*q)[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.lessAt(l, small) {
			small = l
		}
		if r < n && q.lessAt(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// Cluster is the running simulation state.
type Cluster struct {
	cfg        Config
	designOpts core.Options
	layout     mem.Layout
	ring       *Ring
	load       *workload.KVLoad
	nodes      []*node
	health     []bool // router's availability view
	shadow     *shadow
	tel        *telemetry.Recorder

	evq      eventQueue
	seq      int64
	rng      *rand.Rand // network + backoff jitter (deterministic use order)
	writeSeq uint64

	// Replication state (allocated only when Replicas > 1).
	groups     map[uint64][]int // key → cached ordered replica set
	linkNext   []sim.Cycle      // per (from, to) link: last replication delivery (FIFO)
	failedOver []bool           // router promoted the next replica of this down node
	verSeq     uint64           // global commit version counter

	generated   int64
	outstanding int64
	tenantNext  []pendingArrival
	released    []bool // per node: current machine already released

	// External control (silo-serve): extCrash holds a pending on-demand
	// node crash (0 none, n+1 node n, -1 any live node) set from another
	// goroutine; pacer, when non-nil, is called once per dispatched event
	// on the Drive goroutine to throttle toward wall-clock speed. Neither
	// is used by batch callers, whose runs stay byte-identical.
	extCrash atomic.Int64
	pacer    func(now sim.Cycle)

	res Result
}

// RequestCrash asks Drive to power-fail a node at the current event
// time: node >= 0 picks that node, node < 0 the lowest-numbered node
// still up. Safe from any goroutine; a request against a node already
// down is dropped (the evCrash double-strike guard).
func (c *Cluster) RequestCrash(node int) {
	if node < 0 {
		c.extCrash.Store(-1)
		return
	}
	c.extCrash.Store(int64(node) + 1)
}

// SetPacer installs a host-side throttle called once per dispatched
// event with the event's simulated time. Call before Drive.
func (c *Cluster) SetPacer(f func(now sim.Cycle)) { c.pacer = f }

// takeExtCrash resolves a pending external crash request to a node id
// (-1 when none is pending or no node is up).
func (c *Cluster) takeExtCrash() int {
	v := c.extCrash.Swap(0)
	if v == 0 {
		return -1
	}
	if v > 0 {
		n := int(v - 1)
		if n < len(c.nodes) && c.nodes[n].state != nodeDown {
			return n
		}
		return -1
	}
	for _, n := range c.nodes {
		if n.state != nodeDown {
			return n.id
		}
	}
	return -1
}

type pendingArrival struct {
	read bool
	key  uint64
}

// New builds a cluster simulation (nodes booted, faults and first
// arrivals scheduled) without running it; Run is New + Drive.
func New(cfg Config) (*Cluster, error) {
	cfg.defaults()
	c := &Cluster{
		cfg:    cfg,
		layout: mem.DefaultLayout(),
		ring:   NewRing(cfg.Nodes, cfg.VNodes, cfg.Seed),
		shadow: newShadow(),
		tel:    cfg.Telemetry,
		rng:    rand.New(rand.NewSource(cfg.Seed ^ 0x636c7573746572)), // "cluster"
	}
	c.res.Design = cfg.Design
	c.res.Nodes = cfg.Nodes
	c.res.Replicas = cfg.Replicas
	c.res.Mode = cfg.Replication
	if cfg.Replicas > 1 {
		c.groups = make(map[uint64][]int)
		c.linkNext = make([]sim.Cycle, cfg.Nodes*cfg.Nodes)
		c.failedOver = make([]bool, cfg.Nodes)
	}
	c.load = workload.NewKVLoad(workload.KVLoadConfig{
		Seed:          cfg.Seed ^ 0x6c6f6164, // "load"
		Tenants:       cfg.Tenants,
		Keys:          cfg.Keys,
		ZipfS:         cfg.ZipfS,
		ReadPercent:   cfg.ReadPercent,
		MeanGap:       cfg.MeanGap,
		RecentBias:    cfg.ReadRecentBias,
		DiurnalPeriod: cfg.DiurnalPeriod,
		DiurnalAmp:    cfg.DiurnalAmp,
	})

	// Per-node crash schedules from the plan.
	crashTimes := make([][]sim.Cycle, cfg.Nodes)
	if cfg.Plan != nil {
		for _, nc := range cfg.Plan.Crashes {
			if nc.Node < 0 || nc.Node >= cfg.Nodes {
				continue
			}
			crashTimes[nc.Node] = append(crashTimes[nc.Node], nc.At)
		}
	}

	c.health = make([]bool, cfg.Nodes)
	c.released = make([]bool, cfg.Nodes)
	for id := 0; id < cfg.Nodes; id++ {
		n := &node{
			id:         id,
			crashTimes: crashTimes[id],
			kv:         make(map[uint64]uint64),
			ver:        make(map[uint64]uint64),
		}
		if len(n.crashTimes) > 0 {
			n.pendingCrash = n.crashTimes[0]
		}
		if err := c.bootNode(n); err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.health[id] = true
		c.tel.NodeState(id, 0, telemetry.NodeUp, 0)
		for _, at := range n.crashTimes {
			c.schedule(at, evCrash, id, nil, 0)
		}
	}

	// First arrival per tenant.
	c.tenantNext = make([]pendingArrival, cfg.Tenants)
	for t := 0; t < cfg.Tenants; t++ {
		at, read, key := c.load.Next(t, 0)
		c.tenantNext[t] = pendingArrival{read: read, key: key}
		c.schedule(at, evArrive, t, nil, 0)
	}
	return c, nil
}

// selfCrashNode is the node that arms the template plan's machine-level
// self-crash trigger (the first scheduled crash victim, else node 0).
func (c *Cluster) selfCrashNodeID() int {
	if c.cfg.Plan != nil && len(c.cfg.Plan.Crashes) > 0 {
		return c.cfg.Plan.Crashes[0].Node
	}
	return 0
}

// Run executes one cluster simulation to completion.
func Run(cfg Config) Result {
	c, err := New(cfg)
	if err != nil {
		return Result{Design: cfg.Design, Err: err}
	}
	return c.Drive()
}

// Drive pumps the event loop until the simulation drains (every request
// resolved, every recovery finished) and returns the result.
func (c *Cluster) Drive() Result {
	defer c.releaseAll()
	var processed int64
	for len(c.evq) > 0 && c.res.Err == nil {
		if processed++; processed > c.cfg.MaxEvents {
			c.res.Err = fmt.Errorf("cluster: event budget exceeded (%d events; livelock?)", c.cfg.MaxEvents)
			c.res.Infra = true
			break
		}
		ev := c.evq.pop()
		if ev.at > c.res.FinalCycle {
			c.res.FinalCycle = ev.at
		}
		if c.extCrash.Load() != 0 {
			if n := c.takeExtCrash(); n >= 0 {
				c.schedule(ev.at, evCrash, n, nil, 0)
			}
		}
		if c.pacer != nil {
			c.pacer(ev.at)
		}
		c.dispatch(ev)
	}
	c.finalize()
	return c.res
}

func (c *Cluster) schedule(at sim.Cycle, kind evKind, node int, req *request, arg int) {
	c.scheduleEv(event{at: at, kind: kind, node: node, req: req, arg: arg})
}

func (c *Cluster) scheduleEv(e event) {
	c.seq++
	e.seq = c.seq
	c.evq.push(e)
}

func (c *Cluster) fail(err error) {
	if c.res.Err == nil {
		c.res.Err = err
		c.res.Infra = true
	}
}

// hopDelay is one network hop: base latency plus uniform jitter.
func (c *Cluster) hopDelay() sim.Cycle {
	d := c.cfg.HopLatency
	if c.cfg.HopJitter > 0 {
		d += sim.Cycle(c.rng.Int63n(int64(c.cfg.HopJitter)))
	}
	return d
}

// backoff is the client retry delay before attempt `attempt` (>= 2):
// exponential in the attempt number with uniform jitter of half a base.
func (c *Cluster) backoff(attempt int) sim.Cycle {
	d := c.cfg.BackoffBase << (attempt - 2)
	if d > c.cfg.Timeout {
		d = c.cfg.Timeout // cap so late retries don't overshoot the horizon
	}
	return d + sim.Cycle(c.rng.Int63n(int64(c.cfg.BackoffBase/2+1)))
}

func (c *Cluster) dispatch(ev event) {
	switch ev.kind {
	case evArrive:
		c.onArrive(ev.node, ev.at)
	case evRetry:
		if ev.req.done {
			return // resolved (a late ack) before the retry fired
		}
		c.route(ev.req, ev.at)
	case evNodeRecv:
		c.onNodeRecv(c.nodes[ev.node], ev.req, ev.arg, ev.at)
	case evNodeDone:
		c.onNodeDone(c.nodes[ev.node], ev.req, ev.arg, ev.ver, ev.at)
	case evResp:
		c.onResp(ev.req, ev.arg, ev.node, ev.ver, ev.at)
	case evTimeout:
		if ev.req.done || ev.arg != ev.req.attempt {
			return
		}
		c.res.Timeouts++
		c.retryOrFail(ev.req, ev.at)
	case evCrash:
		n := c.nodes[ev.node]
		if n.state == nodeDown {
			return // double strike while already down
		}
		c.crashNode(n, ev.at)
	case evRecovered:
		c.onRecovered(c.nodes[ev.node], ev.at)
	case evHealthDown:
		n := c.nodes[ev.node]
		if n.crashes != ev.arg || n.state == nodeUp {
			return // a newer strike rescheduled detection, or the node beat the detector back up
		}
		c.health[ev.node] = false
		if n.windowOpen {
			if w := &c.res.Windows[n.windowIdx]; w.DetectedAt == 0 {
				w.DetectedAt = ev.at
			}
		}
		if c.cfg.Replicas > 1 {
			c.schedule(ev.at+c.cfg.PromoteDelay, evPromote, ev.node, nil, ev.arg)
		}
	case evReplRecv:
		c.onReplRecv(c.nodes[ev.node], ev.repl, ev.at)
	case evReplDone:
		c.onReplDone(c.nodes[ev.node], ev.repl, ev.arg, ev.at)
	case evReplAck:
		c.onReplAck(ev.repl, ev.at)
	case evPromote:
		c.onPromote(c.nodes[ev.node], ev.arg, ev.at)
	case evResynced:
		c.onResynced(c.nodes[ev.node], ev.arg, ev.at)
	}
}

// onArrive materializes tenant t's pre-drawn request and draws the next.
func (c *Cluster) onArrive(t int, now sim.Cycle) {
	if c.generated >= int64(c.cfg.Requests) {
		return
	}
	pa := c.tenantNext[t]
	c.generated++
	c.res.Generated++
	req := &request{
		id:        c.generated,
		tenant:    t,
		key:       pa.key,
		read:      pa.read,
		attempt:   1,
		firstSend: now,
	}
	if req.read {
		c.res.Gets++
	} else {
		c.writeSeq++
		req.val = c.writeSeq
		c.res.Puts++
	}
	c.outstanding++
	c.route(req, now)
	if c.generated < int64(c.cfg.Requests) {
		at, read, key := c.load.Next(t, now)
		c.tenantNext[t] = pendingArrival{read: read, key: key}
		c.schedule(at, evArrive, t, nil, 0)
	}
}

// route sends one attempt toward the key's first live replica. Without
// replication that is the single owner (fast-fail when the router
// believes it is down). With replication the router walks the ordered
// replica set: a member known down *and* failed-over is skipped; a
// member known down but not yet promoted blocks the walk (promotion is
// what authorizes the next replica to serve), so the request fast-fails
// and the client's backoff retry lands after promotion.
func (c *Cluster) route(req *request, now sim.Cycle) {
	nodeID, ok := c.ring.Owner(req.key), false
	if c.cfg.Replicas > 1 {
		for _, m := range c.groupOf(req.key) {
			nodeID = m
			if c.health[m] {
				ok = true
				break
			}
			if !c.failedOver[m] {
				break
			}
		}
	} else {
		ok = c.health[nodeID]
	}
	req.node = nodeID
	c.tel.Route(nodeID, now, req.key, req.attempt, !ok)
	if !ok {
		c.res.FastFails++
		c.schedule(now+c.hopDelay(), evResp, nodeID, req, respUnavail)
		return
	}
	c.schedule(now+c.hopDelay(), evNodeRecv, nodeID, req, req.attempt)
	c.schedule(now+c.cfg.Timeout, evTimeout, nodeID, req, req.attempt)
}

// onNodeRecv is a request arriving at its shard server.
func (c *Cluster) onNodeRecv(n *node, req *request, attempt int, now sim.Cycle) {
	if req.done || attempt != req.attempt {
		return // superseded attempt; the packet evaporates
	}
	if n.state != nodeUp {
		return // blackholed: down or wedged nodes don't answer; the client times out
	}
	if len(n.queue) >= c.cfg.QueueCap {
		c.res.Sheds++
		c.tel.NodeQueue(n.id, now, len(n.queue), c.cfg.QueueCap, true)
		c.schedule(now+c.hopDelay(), evResp, n.id, req, respShed)
		return
	}
	n.queue = append(n.queue, req)
	c.tel.NodeQueue(n.id, now, len(n.queue), c.cfg.QueueCap, false)
	if !n.busy {
		c.startService(n, now)
	}
}

// startService pulls the node's next work item — replication applies
// first (they carry other members' ack promises and are exempt from
// shedding), then client requests — and executes it on the machine. A
// node mid-resync serves only replication applies.
func (c *Cluster) startService(n *node, now sim.Cycle) {
	for {
		if n.busy || (n.state != nodeUp && n.state != nodeResync) {
			return
		}
		if n.pendingCrash > 0 && now >= n.pendingCrash {
			// The power failure event is due this very cycle; don't start
			// work the crash teardown would have to unwind.
			n.state = nodeWedged
			return
		}
		if len(n.replQueue) > 0 {
			msg := n.replQueue[0]
			copy(n.replQueue, n.replQueue[1:])
			n.replQueue = n.replQueue[:len(n.replQueue)-1]
			if msg.ver <= n.ver[msg.key] {
				// Superseded: a newer version already applied (commit order
				// crossed links during failover). The replica's state covers
				// this write, so the sync ack still goes out.
				c.res.ReplStale++
				c.ackRepl(n, msg, now)
				continue
			}
			c.serveApply(n, msg, now)
			return
		}
		if n.state != nodeUp || len(n.queue) == 0 {
			return
		}
		c.serveRequest(n, now)
		return
	}
}

// serveApply executes one replication apply on the node machine.
func (c *Cluster) serveApply(n *node, msg *replMsg, now sim.Cycle) {
	n.busy = true
	sr, err := c.runApply(n, msg, now)
	if err != nil {
		c.fail(err)
		return
	}
	if sr.committed {
		msg.committed = true
		n.kv[msg.key] = msg.val
		n.ver[msg.key] = msg.ver
		n.commits++
		c.res.ReplApplied++
	}
	if sr.crashed {
		tc := now + sr.dur - c.cfg.ServiceOverhead
		n.state = nodeWedged
		if !(n.pendingCrash > 0 && tc >= n.pendingCrash) {
			c.schedule(tc, evCrash, n.id, nil, 0)
		}
		return
	}
	done := now + sr.dur
	if n.pendingCrash > 0 && done >= n.pendingCrash {
		// Applied durably, but power fails before the ack leaves.
		n.state = nodeWedged
		return
	}
	c.scheduleEv(event{at: done, kind: evReplDone, node: n.id, repl: msg, arg: n.incarn})
}

// serveRequest pops the client queue head and executes it.
func (c *Cluster) serveRequest(n *node, now sim.Cycle) {
	req := n.queue[0]
	copy(n.queue, n.queue[1:])
	n.queue = n.queue[:len(n.queue)-1]
	n.busy = true
	n.inflight = req
	c.tel.NodeQueue(n.id, now, len(n.queue), c.cfg.QueueCap, false)

	var ver uint64
	if c.cfg.Replicas > 1 && !req.read {
		c.verSeq++
		ver = c.verSeq
	}
	sr, err := c.runService(n, req, ver, now)
	if err != nil {
		c.fail(err)
		return
	}
	if sr.committed {
		n.commits++
		c.res.CommittedPuts++
		req.committed = true
		c.shadow.commitPut(req.key, req.val)
		n.kv[req.key] = req.val
		if ver > 0 {
			n.ver[req.key] = ver
		}
		c.countCommitInWindows(n.id)
	}
	if req.read && !sr.crashed {
		req.loaded = sr.loaded
		c.shadow.checkGet(req.key, sr.loaded, n.kv[req.key], n.id, now)
	}
	if sr.crashed {
		// The machine lost power mid-request. If the cluster-scheduled
		// crash fired, its evCrash event performs the teardown at the
		// exact scheduled time; a machine-level self-trigger instead
		// gets a teardown event at the machine's crash cycle.
		tc := now + sr.dur - c.cfg.ServiceOverhead
		n.state = nodeWedged
		if !(n.pendingCrash > 0 && tc >= n.pendingCrash) {
			c.schedule(tc, evCrash, n.id, nil, 0)
		}
		return
	}
	done := now + sr.dur
	if n.pendingCrash > 0 && done >= n.pendingCrash {
		// The request committed, but power fails before the response
		// leaves the node: committed-but-unacked. The node wedges until
		// its crash event; the client sees a timeout.
		n.state = nodeWedged
		return
	}
	c.scheduleEv(event{at: done, kind: evNodeDone, node: n.id, req: req, arg: n.incarn, ver: ver})
}

// onNodeDone is the server finishing a client request: respond (or,
// for a sync-replicated Put, fan out to the replicas and defer the
// response to their acks) and pull the next queued work item.
func (c *Cluster) onNodeDone(n *node, req *request, incarn int, ver uint64, now sim.Cycle) {
	if n.incarn != incarn || n.state != nodeUp {
		return // stale completion from a pre-crash incarnation
	}
	n.busy = false
	n.inflight = nil
	n.served++
	if n.windowOpen {
		w := &c.res.Windows[n.windowIdx]
		w.ServingAt = now
		w.Closed = true
		n.windowOpen = false
	}
	if c.cfg.Replicas > 1 {
		c.stampFailover(req.key, n.id, now)
	}
	if c.cfg.Replicas > 1 && !req.read {
		c.replicate(n, req, ver, now)
	} else {
		c.scheduleEv(event{at: now + c.hopDelay(), kind: evResp, node: n.id, req: req, arg: respOK, ver: ver})
	}
	if len(n.queue) > 0 || len(n.replQueue) > 0 {
		c.startService(n, now)
	}
}

// stampFailover records, on every open window of another replica of
// this key, the first completion a surviving member served — evidence
// the key's shard stayed available through the crash.
func (c *Cluster) stampFailover(key uint64, servedBy int, now sim.Cycle) {
	for i := range c.res.Windows {
		w := &c.res.Windows[i]
		if !w.Closed && w.FailoverAt == 0 && w.Node != servedBy && c.inGroup(key, w.Node) {
			w.FailoverAt = now
		}
	}
}

// onResp is a response reaching the client.
func (c *Cluster) onResp(req *request, kind, nodeID int, ver uint64, now sim.Cycle) {
	if req.done {
		c.res.Late++
		return
	}
	switch kind {
	case respOK:
		req.done = true
		c.outstanding--
		c.res.Acked++
		c.res.Latency.Observe(int64(now - req.firstSend))
		if !req.read {
			c.res.AckedPuts++
			c.shadow.ackPut(req.key, req.val, nodeID, now)
			if ver > 0 {
				c.shadow.noteAcked(req.key, ver)
			}
		}
	case respShed, respUnavail, respReset:
		if kind == respReset {
			c.res.Resets++
		}
		c.retryOrFail(req, now)
	}
}

// retryOrFail re-sends with backoff, or gives up once the retry budget
// is spent.
func (c *Cluster) retryOrFail(req *request, now sim.Cycle) {
	if req.attempt > c.cfg.Retries {
		req.done = true
		c.outstanding--
		c.res.Failed++
		return
	}
	req.attempt++
	c.res.Retries++
	c.schedule(now+c.backoff(req.attempt), evRetry, -1, req, req.attempt)
}

// onRecovered brings the next incarnation of a node into service.
// Without replication it rejoins immediately; with replication it
// enters the catch-up resync first and rejoins at evResynced.
func (c *Cluster) onRecovered(n *node, now sim.Cycle) {
	n.incarn++
	if err := c.bootNode(n); err != nil {
		c.fail(err)
		return
	}
	c.released[n.id] = false
	for n.nextCrash < len(n.crashTimes) && n.crashTimes[n.nextCrash] <= now {
		n.nextCrash++
	}
	n.pendingCrash = 0
	if n.nextCrash < len(n.crashTimes) {
		n.pendingCrash = n.crashTimes[n.nextCrash]
	}
	if n.windowOpen {
		c.res.Windows[n.windowIdx].RecoveredAt = now
	}
	if c.cfg.Replicas > 1 {
		n.state = nodeResync
		c.tel.NodeState(n.id, now, telemetry.NodeRecovering, n.crashes)
		cost, crashed, err := c.resyncNode(n, now)
		if err != nil {
			c.fail(err)
			return
		}
		if crashed {
			// Power failed mid-catch-up: the committed prefix is durable
			// and the node's scheduled evCrash performs the teardown.
			n.state = nodeWedged
			return
		}
		c.schedule(now+cost, evResynced, n.id, nil, n.incarn)
		return
	}
	n.state = nodeUp
	c.health[n.id] = true
	c.tel.NodeState(n.id, now, telemetry.NodeUp, n.crashes)
}

// countCommitInWindows credits a commit on nodeID to every open crash
// window of *other* nodes — the "surviving nodes keep serving" proof.
func (c *Cluster) countCommitInWindows(nodeID int) {
	for i := range c.res.Windows {
		w := &c.res.Windows[i]
		if !w.Closed && w.Node != nodeID {
			w.CommitsElsewhere++
		}
	}
}

// finalize clamps open windows, snapshots per-node stats, and copies
// the shadow verdicts into the result.
func (c *Cluster) finalize() {
	for i := range c.res.Windows {
		if !c.res.Windows[i].Closed {
			c.res.Windows[i].ServingAt = c.res.FinalCycle
		}
	}
	for _, n := range c.nodes {
		c.res.PerNode = append(c.res.PerNode, NodeStats{
			Served: n.served, Commits: n.commits, Crashes: n.crashes,
		})
	}
	c.res.Divergences = c.shadow.divergences
	c.res.AckedLost = c.shadow.ackedLost
	if c.res.Err == nil && c.outstanding != 0 {
		// The event queue drained with live requests — a harness bug.
		c.res.Err = fmt.Errorf("cluster: %d requests unresolved at drain", c.outstanding)
		c.res.Infra = true
	}
}

// releaseAll returns every live machine's pooled resources.
func (c *Cluster) releaseAll() {
	for _, n := range c.nodes {
		if n.m != nil && !c.released[n.id] {
			n.m.Release()
			c.released[n.id] = true
		}
	}
}
