package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"silo/internal/machine"
	"silo/internal/mem"
	"silo/internal/sim"
)

// btreeReference is BtreeWL's transaction loop in program form: the
// specification pmds.BTree.InsertStream must match op for op.
func btreeReference(w *BtreeWL, core, txns int, rng *rand.Rand) sim.OpStream {
	t := w.trees[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, _, _ int) {
		t.Insert(ctx, mem.Word(ctx.Rand.Intn(w.keyRange))+1)
	})
}

// tapExec executes ops on a machine and records each op with its
// result. At the first op of kind crashKind at or after index
// crashAfter (-1: never) it returns the crash sentinel instead of
// executing, so the stream must end there.
type tapExec struct {
	m          *machine.Machine
	crashKind  sim.OpKind
	crashAfter int
	ops        []sim.Op
	res        []sim.Result
	crashed    bool
}

func (x *tapExec) Exec(core int, op sim.Op, now sim.Cycle) sim.Result {
	r := sim.Result{Latency: -1}
	if x.crashAfter >= 0 && len(x.ops) >= x.crashAfter && op.Kind == x.crashKind {
		x.crashed = true
	} else {
		r = x.m.Exec(core, op, now)
	}
	x.ops = append(x.ops, op)
	x.res = append(x.res, r)
	return r
}

func (x *tapExec) Peek(core int, addr mem.Addr) mem.Word { return x.m.Peek(core, addr) }

// The hand-written Btree state machine must be indistinguishable from
// the loop it unrolls: each driven through its own engine on its own
// machine, the Stream and its reference program issue identical ops and
// receive identical results, and both end at a crash sentinel — whether
// it hits a load or a store.
func TestStateMachinesMatchReferenceLoops(t *testing.T) {
	const txns = 120
	crashes := []struct {
		name  string
		kind  sim.OpKind
		after int // crash at the first op of kind at or after this index; -1 never
	}{
		{"clean", 0, -1},
		{"crash-at-load", sim.OpLoad, 700},
		{"crash-at-store", sim.OpStore, 700},
	}
	for _, opsPerTx := range []int{1, 3} {
		for _, cr := range crashes {
			t.Run(fmt.Sprintf("Btree/ops%d/%s", opsPerTx, cr.name), func(t *testing.T) {
				run := func(stream func(w *BtreeWL) sim.OpStream) *tapExec {
					w := NewBtree(1<<20, 1000)
					w.SetOpsPerTx(opsPerTx)
					x := &tapExec{m: setUp(w, 3), crashKind: cr.kind, crashAfter: cr.after}
					sim.NewEngine(x, 1, 5).RunStreams([]sim.OpStream{stream(w)})
					return x
				}
				xm := run(func(w *BtreeWL) sim.OpStream { return w.Stream(0, txns, sim.CoreRand(5, 0)) })
				xr := run(func(w *BtreeWL) sim.OpStream { return btreeReference(w, 0, txns, sim.CoreRand(5, 0)) })
				if len(xm.ops) != len(xr.ops) {
					t.Errorf("state machine executed %d ops, reference %d", len(xm.ops), len(xr.ops))
				}
				for i := 0; i < min(len(xm.ops), len(xr.ops)); i++ {
					if xm.ops[i] != xr.ops[i] || xm.res[i] != xr.res[i] {
						t.Fatalf("op %d: state machine %+v → %+v, reference %+v → %+v",
							i, xm.ops[i], xm.res[i], xr.ops[i], xr.res[i])
					}
				}
				if cr.after >= 0 {
					if !xm.crashed || xm.res[len(xm.res)-1].Latency >= 0 {
						t.Fatalf("run did not end at the crash sentinel of a %v at op %d", cr.kind, cr.after)
					}
				} else if got := xm.m.CollectStats("Silo", "Btree"); got.Transactions != txns {
					t.Errorf("committed %d transactions, want %d", got.Transactions, txns)
				}
			})
		}
	}
}
