// Package workload defines the benchmark workloads of Table III and
// Fig. 4 as per-core operation streams over the simulated machine: the
// five micro-benchmarks (Array, Btree, Hash, Queue, RBtree), the PMDK
// structures (Rtree, Ctrie), YCSB, TATP, Bank, and the write-set-size
// sweep used for the large-transaction study (Fig. 14). TPCC lives in its
// own package. Each workload's one method that drives the engine is
// Stream; see Workload for its two implementation forms.
//
// Every workload partitions its data per core (one structure instance per
// thread), matching the paper's assumption that isolation is provided by
// software and logs never cross threads (§III-A, §III-C).
package workload

import (
	"math/rand"

	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/pmds"
	"silo/internal/pmheap"
	"silo/internal/sim"
)

// Workload is one benchmark: Setup builds initial PM state through the
// untimed direct accessor, then Stream(core, txns, rng) returns the
// pull-based operation stream core runs on the cooperative engine — txns
// transactions, drawing every random choice from rng. SetOpsPerTx grows
// the write set of every transaction by repeating the workload's
// operation — the mechanism behind the Fig. 14 large-transaction sweep.
//
// Workloads write Stream as a loop of transactions over a sim.Ctx, one
// sim.NewStream unit per transaction, most through TxShape.TxLoop. Only
// Btree, whose hand-written state machine measurably beats its loop,
// implements sim.OpStream directly; it is tested op for op against the
// loop.
type Workload interface {
	Name() string
	Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand)
	Stream(core, txns int, rng *rand.Rand) sim.OpStream
	SetOpsPerTx(n int)
}

// TxShape is embedded by workloads to implement SetOpsPerTx.
type TxShape struct{ ops int }

// SetOpsPerTx sets how many workload operations run inside one
// transaction (minimum 1).
func (s *TxShape) SetOpsPerTx(n int) { s.ops = n }

// OpsPerTx returns the configured operations per transaction.
func (s *TxShape) OpsPerTx() int {
	if s.ops < 1 {
		return 1
	}
	return s.ops
}

// TxLoop returns the stream of txns transactions, each of OpsPerTx
// calls of op(ctx, i, j) — operation j of transaction i.
func (s *TxShape) TxLoop(core, txns int, rng *rand.Rand, op func(ctx *sim.Ctx, i, j int)) sim.OpStream {
	return transactions(core, txns, rng, func(ctx *sim.Ctx, i int) {
		for j := 0; j < s.OpsPerTx(); j++ {
			op(ctx, i, j)
		}
	})
}

// transactions returns the unit stream (sim.NewStream) of txns
// transactions, one per unit: transaction i is body(ctx, i) between a
// TxBegin and a TxEnd.
func transactions(core, txns int, rng *rand.Rand, body func(ctx *sim.Ctx, i int)) sim.OpStream {
	i := 0
	return sim.NewStream(core, rng, func(ctx *sim.Ctx) bool {
		if i >= txns {
			return false
		}
		ctx.TxBegin()
		body(ctx, i)
		ctx.TxEnd()
		i++
		return true
	})
}

// Direct returns an untimed accessor writing straight to the PM device —
// used to populate initial state before the simulation starts.
func Direct(dev *pm.Device) pmds.Accessor { return directAccessor{dev} }

type directAccessor struct{ dev *pm.Device }

func (d directAccessor) Load(a mem.Addr) mem.Word     { return d.dev.PeekWord(a) }
func (d directAccessor) Store(a mem.Addr, v mem.Word) { d.dev.PokeWord(a, v) }

// Registry returns the named workload, or nil. TPCC variants are
// registered by the harness (import-cycle hygiene).
func Registry(name string) Workload {
	switch name {
	case "Array":
		return NewArray(4096)
	case "Btree":
		return NewBtree(1<<20, 1000)
	case "Hash":
		return NewHash(1<<15, 2048)
	case "Queue":
		return NewQueue(1024, 512)
	case "RBtree":
		return NewRBtree(1<<20, 1000)
	case "YCSB":
		return NewYCSB(1<<14, 8192, 20) // the paper's 20/80 read/update mix
	case "YCSB-A":
		return NewYCSB(1<<14, 8192, 50).Named("YCSB-A") // standard workload A: 50/50
	case "YCSB-B":
		return NewYCSB(1<<14, 8192, 95).Named("YCSB-B") // standard workload B: 95/5
	case "YCSB-C":
		return NewYCSB(1<<14, 8192, 100).Named("YCSB-C") // standard workload C: read-only
	case "Rtree":
		return NewRtree(20)
	case "Ctrie":
		return NewCtrie(1 << 30)
	case "TATP":
		return NewTATP(8192)
	case "Bank":
		return NewBank(8192)
	case "HashMix":
		return NewHashMix(1<<14, 4096, 12000)
	case "RBtreeMix":
		return NewRBtreeMix(4096, 1024)
	case "BPtree":
		return NewBPtree(1<<18, 2000)
	case "LevelHash":
		return NewLevelHash(1<<12, 4096, 20000)
	}
	return nil
}

// MicroNames lists the five micro-benchmarks in Table III order.
func MicroNames() []string { return []string{"Array", "Btree", "Hash", "Queue", "RBtree"} }
