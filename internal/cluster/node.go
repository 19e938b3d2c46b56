package cluster

import (
	"fmt"

	"silo/internal/cache"
	"silo/internal/fault"
	"silo/internal/harness"
	"silo/internal/machine"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// nodeState is one node's availability.
type nodeState uint8

const (
	// nodeUp: serving requests.
	nodeUp nodeState = iota
	// nodeWedged: a scheduled crash lands inside or immediately after
	// the current service run; the node stops serving and waits for its
	// evCrash to perform the teardown. Responses in this gap are lost.
	nodeWedged
	// nodeDown: crashed; rebooting and replaying its log. Packets are
	// blackholed until the router's failure detector marks it down.
	nodeDown
	// nodeResync (Replicas > 1 only): rebooted and replayed, now pulling
	// the catch-up diff from live replicas before re-entering the ring.
	// Client requests are blackholed; forwarded replication messages are
	// accepted and applied so the sync-ack contract covers the node.
	nodeResync
)

// node is one shard server: a single-core Silo machine over a PM device
// that survives the node's crashes, plus the queueing and incarnation
// state around it.
type node struct {
	id    int
	state nodeState

	dev    *pm.Device
	m      *machine.Machine
	eng    *sim.Engine
	incarn int

	queue    []*request
	busy     bool
	inflight *request

	// replQueue holds replication messages awaiting apply. It is served
	// ahead of client requests and is exempt from QueueCap shedding —
	// backpressure on replication would silently weaken the ack
	// contract, so lag is surfaced (telemetry KReplLag) instead.
	replQueue []*replMsg

	// kv/ver mirror the node's durably applied (value, version) words
	// per key. They survive crashes in host memory, which is legitimate
	// only because every recovery verifies the replayed PM media against
	// them word-for-word (checkReplRecovered) — keeping the maps is
	// equivalent to re-reading them from the media they provably match.
	kv  map[uint64]uint64
	ver map[uint64]uint64

	// crashTimes is this node's slice of the cluster fault schedule
	// (sorted); nextCrash indexes the first not-yet-fired entry.
	// pendingCrash caches crashTimes[nextCrash] (0 = none pending) and
	// is fixed for the lifetime of an incarnation.
	crashTimes   []sim.Cycle
	nextCrash    int
	pendingCrash sim.Cycle

	crashes int
	served  int64
	commits int64

	// windowOpen tracks the unavailability window of the latest crash:
	// opened at power failure, closed at the first successful service
	// completion of the next incarnation.
	windowOpen bool
	windowIdx  int // index into Result.Windows
}

// machinePlan returns this node's machine-level fault plan: the cluster
// template's crash *shape* (budget, tearing, strict draw, re-crash
// cadence) for every node, with the self-crash trigger armed only on
// the designated node's first incarnation (re-arming it every reboot
// would thrash a node into a crash loop the plan never asked for).
func (c *Cluster) machinePlan(id, incarn int) *fault.Plan {
	if c.cfg.Plan == nil {
		return nil
	}
	p := c.cfg.Plan.Node // copy
	if id != c.selfCrashNodeID() || incarn > 0 {
		p.Trigger = fault.TriggerNone
	} else if p.Trigger == fault.TriggerCycle {
		// Node machine clocks restart every reboot, so a node-local
		// cycle trigger is ambiguous across incarnations; remap it to
		// the op count the fault generator would have scaled it from.
		p.Trigger = fault.TriggerOp
		if p.AtOp = int64(p.AtCycle) / 40; p.AtOp < 1 {
			p.AtOp = 1
		}
	}
	p.Seed ^= int64(id) * 0x6a09e667f3bcc909
	return &p
}

// bootNode builds node id's next machine incarnation. The node owns its
// device: on first boot it is created here, on reboot the surviving
// device is power-cycled and reused, so media contents (data and logs)
// carry across the crash while caches and logging hardware come up
// cold. Passing it as Config.Device keeps it out of the machine pools
// when an incarnation is released.
func (c *Cluster) bootNode(n *node) error {
	factory, err := harness.DesignFactory(c.cfg.Design, c.designOpts)
	if err != nil {
		return err
	}
	if n.dev == nil {
		n.dev = pm.New(pm.DefaultConfig())
	} else {
		n.dev.PowerCycle()
	}
	n.m = machine.New(machine.Config{
		Cores:        1,
		Cache:        cache.DefaultHierarchyConfig(),
		Design:       factory,
		Fault:        c.machinePlan(n.id, n.incarn),
		DisableAudit: c.cfg.DisableAudit,
		Device:       n.dev,
	})
	n.eng = n.m.Engine(c.cfg.Seed ^ int64(n.id)*1_000_003 ^ int64(n.incarn)<<40)
	n.busy = false
	n.inflight = nil
	n.queue = n.queue[:0]
	n.replQueue = n.replQueue[:0]
	return nil
}

// keyAddr maps a key to its PM word. The data region below the first
// heap arena is unused by the KV nodes (they run no other workload), so
// a flat 8-byte-per-key layout starting one page in is collision-free.
func (c *Cluster) keyAddr(key uint64) mem.Addr {
	return c.layout.DataBase + 4096 + mem.Addr(key*8)
}

// reqStream is the op stream one request executes on the node machine:
// [TxBegin, Store, TxEnd] for a Put, [Load] for a Get. It records the
// loaded word and whether the crash sentinel unwound it.
type reqStream struct {
	ops     []sim.Op
	i       int
	crashed bool
	loaded  uint64
}

func (s *reqStream) Next() (sim.Op, bool) {
	if s.crashed || s.i >= len(s.ops) {
		return sim.Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

func (s *reqStream) Deliver(r sim.Result) {
	if r.Latency < 0 {
		s.crashed = true
		return
	}
	if s.i > 0 && s.ops[s.i-1].Kind == sim.OpLoad {
		s.loaded = uint64(r.Value)
	}
}

// serviceResult is what one machine execution of a request produced.
type serviceResult struct {
	dur       sim.Cycle // machine busy time including fixed overhead
	crashed   bool      // the machine lost power during the run
	committed bool      // the Put's Tx_end completed (commit is durable)
	loaded    uint64    // the Get's value
}

// runService executes req on node n's machine starting at cluster time
// now. A Put under replication (ver > 0) durably stores the value and
// its replication version in one transaction. If a cluster-scheduled
// crash is pending for this incarnation, the engine is armed so the
// power failure lands mid-run at the exact mapped machine cycle — the
// machine clock only advances while serving, so the mapping is
// (pending − now) cycles ahead of the current core time, re-armed at
// every service start.
func (c *Cluster) runService(n *node, req *request, ver uint64, now sim.Cycle) (serviceResult, error) {
	addr := c.keyAddr(req.key)
	st := &reqStream{}
	switch {
	case req.read:
		st.ops = []sim.Op{{Kind: sim.OpLoad, Addr: addr}}
	case ver > 0:
		st.ops = []sim.Op{
			{Kind: sim.OpTxBegin},
			{Kind: sim.OpStore, Addr: addr, Data: mem.Word(req.val)},
			{Kind: sim.OpStore, Addr: c.verAddr(req.key), Data: mem.Word(ver)},
			{Kind: sim.OpTxEnd},
		}
	default:
		st.ops = []sim.Op{
			{Kind: sim.OpTxBegin},
			{Kind: sim.OpStore, Addr: addr, Data: mem.Word(req.val)},
			{Kind: sim.OpTxEnd},
		}
	}
	return c.runStream(n, st, now, req.id)
}

// runApply executes one replication message's apply transaction on the
// replica's machine: value and version words stored durably together.
func (c *Cluster) runApply(n *node, msg *replMsg, now sim.Cycle) (serviceResult, error) {
	st := &reqStream{ops: []sim.Op{
		{Kind: sim.OpTxBegin},
		{Kind: sim.OpStore, Addr: c.keyAddr(msg.key), Data: mem.Word(msg.val)},
		{Kind: sim.OpStore, Addr: c.verAddr(msg.key), Data: mem.Word(msg.ver)},
		{Kind: sim.OpTxEnd},
	}}
	return c.runStream(n, st, now, -int64(msg.ver))
}

// runStream drives one op stream to completion on n's machine.
func (c *Cluster) runStream(n *node, st *reqStream, now sim.Cycle, label int64) (serviceResult, error) {
	var res serviceResult
	t0 := n.eng.CoreTime(0)
	if n.pendingCrash > 0 && n.pendingCrash > now {
		n.eng.ScheduleCrash(t0+(n.pendingCrash-now), n.m.InjectCrash)
	}
	commitsBefore := n.m.Commits()
	n.eng.Bind([]sim.OpStream{st})
	for steps := 0; n.eng.Step(); steps++ {
		if steps > serviceStepBudget {
			return res, fmt.Errorf("cluster: node %d wedged serving work item %d (step budget)", n.id, label)
		}
	}
	res.dur = n.eng.CoreTime(0) - t0 + c.cfg.ServiceOverhead
	res.crashed = st.crashed
	res.committed = n.m.Commits() > commitsBefore
	res.loaded = st.loaded
	return res, nil
}

const serviceStepBudget = 1 << 16

// crashNode performs the power-failure teardown of node n at cluster
// time now: battery flush and the plan's log-media bit flips (if the
// machine hasn't already crashed itself), queue drain with connection
// resets, recovery replay — re-crashed every RecrashEvery applied words
// per the plan, with a doubling battery so it terminates — then both
// correctness verdicts (machine golden shadow and cluster shadow), log
// truncation, and scheduling of the reboot completion.
func (c *Cluster) crashNode(n *node, now sim.Cycle) {
	if n.state == nodeDown {
		return
	}
	if !n.m.Crashed() {
		n.m.InjectCrash(n.eng.Now())
	}
	n.state = nodeDown
	n.crashes++
	c.res.Crashes++
	c.tel.NodeState(n.id, now, telemetry.NodeDown, n.crashes)

	// The unavailability window opens now; commits on surviving nodes
	// during it prove the cluster kept serving. A node struck again
	// before its first post-recovery service completion never closed the
	// previous window — the outage is continuous, so the strike merges
	// into the open window instead of opening (and orphaning) a new one.
	if n.windowOpen {
		c.res.Windows[n.windowIdx].Strikes++
	} else {
		n.windowOpen = true
		n.windowIdx = len(c.res.Windows)
		c.res.Windows = append(c.res.Windows, CrashWindow{Node: n.id, DownAt: now, Strikes: 1})
	}

	// The acked-survival contract is checked at the moment of the crash,
	// against the replicas still standing.
	if c.cfg.Replicas > 1 {
		c.checkAckedSurvival(n, now)
	}

	// Queued requests get connection resets (fast client failure); the
	// in-flight one, if any, is simply lost — its client times out.
	// Queued replication applies die with the node: their writes reach
	// it again through the catch-up resync.
	for _, qr := range n.queue {
		c.schedule(now+c.hopDelay(), evResp, n.id, qr, respReset)
	}
	n.queue = n.queue[:0]
	c.res.ReplDropped += int64(len(n.replQueue))
	n.replQueue = n.replQueue[:0]
	n.inflight = nil
	n.busy = false
	c.tel.NodeQueue(n.id, now, 0, c.cfg.QueueCap, false)

	region := n.m.Region()
	c.res.Torn += region.CrashImagesTorn
	c.res.Dropped += region.CrashImagesDropped

	// Recovery replay. It runs synchronously here (host time) but is
	// billed in simulated time below; probes are stamped at the replay
	// start so Perfetto shows recovery progress inside the window.
	recoverStart := now + c.cfg.RebootDelay
	c.tel.NodeState(n.id, recoverStart, telemetry.NodeRecovering, n.crashes)
	every := 0
	if plan := c.machinePlan(n.id, n.incarn); plan != nil {
		every = plan.RecrashEvery
	}
	rep, restarts := recovery.RecoverRestarting(n.dev, region, every, recovery.Options{Telemetry: c.tel, Now: recoverStart})
	c.res.RecoveryRestarts += restarts
	c.res.Recovery.CommittedTx += rep.CommittedTx
	c.res.Recovery.RedoApplied += rep.RedoApplied
	c.res.Recovery.UndoApplied += rep.UndoApplied
	c.res.Recovery.Discarded += rep.Discarded
	c.res.Recovery.Quarantined += rep.Quarantined
	c.res.Recovery.TotalRecords += rep.TotalRecords
	c.res.Recovery.AppliedWrites += rep.AppliedWrites

	// Verdict 1: the machine's own golden committed shadow, word for
	// word over everything any transaction wrote on this incarnation.
	mismatches, _ := harness.VerifyRecovery(n.m)
	for _, bad := range mismatches {
		c.shadow.diverge("node %d incarnation %d: %s", n.id, n.incarn, bad)
	}
	// Verdict 2: the cluster shadow over every committed key this node
	// owns — catches cross-incarnation loss the per-incarnation machine
	// shadow cannot see, and proves uncommitted Puts rolled back. Under
	// replication the per-node applied map replaces single-owner state
	// (a replica legitimately trails the cluster-committed value).
	if c.cfg.Replicas > 1 {
		c.checkReplRecovered(n, now)
	} else {
		c.shadow.checkRecovered(n.id, c.ring.Owner, func(key uint64) uint64 {
			return uint64(n.dev.PeekWord(c.keyAddr(key)))
		}, now)
	}

	// Invalidate the replayed logs before the next incarnation: the new
	// region writer restarts sequence numbers at zero, and a stale
	// longer log surviving behind it would alias a future crash scan.
	for t := 0; t < region.Threads(); t++ {
		region.Truncate(t)
	}

	// The node machine is done; release its pooled cache arrays.
	n.m.Release()
	c.released[n.id] = true

	// Reboot + replay cost in simulated time, then back in service.
	cost := c.cfg.RebootDelay +
		c.cfg.RecoverPerRecord*sim.Cycle(rep.TotalRecords) +
		c.cfg.RecoverPerWrite*sim.Cycle(rep.AppliedWrites)
	if restarts > 0 {
		cost += c.cfg.RebootDelay * sim.Cycle(restarts)
	}
	c.schedule(now+cost, evRecovered, n.id, nil, n.incarn)

	// The router notices the failure only after its detection lag;
	// until then requests are blackholed and clients burn a timeout.
	c.schedule(now+c.cfg.DetectDelay, evHealthDown, n.id, nil, n.crashes)
}
