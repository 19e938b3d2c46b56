package workload

import (
	"fmt"
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

// arrayReference is ArrayWL's transaction loop in program form: the
// specification its hand-written state machine must match op for op.
func arrayReference(w *ArrayWL, core, txns int) sim.Program {
	arr := w.arrs[core]
	return func(ctx *sim.Ctx) {
		for i := 0; i < txns; i++ {
			ctx.TxBegin()
			for j := 0; j < w.OpsPerTx(); j++ {
				a := ctx.Rand.Intn(w.n)
				b := ctx.Rand.Intn(w.n)
				arr.Swap(ctx, a, b)
			}
			ctx.TxEnd()
		}
	}
}

// btreeReference is BtreeWL's transaction loop in program form: the
// specification pmds.BTree.InsertStream must match op for op.
func btreeReference(w *BtreeWL, core, txns int) sim.Program {
	t := w.trees[core]
	return func(ctx *sim.Ctx) {
		for i := 0; i < txns; i++ {
			ctx.TxBegin()
			for j := 0; j < w.OpsPerTx(); j++ {
				t.Insert(ctx, mem.Word(ctx.Rand.Intn(w.keyRange))+1)
			}
			ctx.TxEnd()
		}
	}
}

// The hand-written state machines must be indistinguishable from the
// loops they unroll: driven side by side, each on its own machine, the
// Stream and its reference program issue identical ops and receive
// identical results, and both end at a crash sentinel — whether it hits
// an op the program suspends on (a load) or one it queued (a store).
func TestStateMachinesMatchReferenceLoops(t *testing.T) {
	const txns = 120
	cases := []struct {
		name string
		mk   func() Workload
		ref  func(w Workload, core, txns int) sim.Program
	}{
		{"Array", func() Workload { return NewArray(512) },
			func(w Workload, c, n int) sim.Program { return arrayReference(w.(*ArrayWL), c, n) }},
		{"Btree", func() Workload { return NewBtree(1<<20, 1000) },
			func(w Workload, c, n int) sim.Program { return btreeReference(w.(*BtreeWL), c, n) }},
	}
	crashes := []struct {
		name  string
		kind  sim.OpKind
		after int // crash at the first op of kind at or after this index; -1 never
	}{
		{"clean", 0, -1},
		{"crash-at-load", sim.OpLoad, 700},
		{"crash-at-store", sim.OpStore, 700},
	}
	for _, tc := range cases {
		for _, opsPerTx := range []int{1, 3} {
			for _, cr := range crashes {
				t.Run(fmt.Sprintf("%s/ops%d/%s", tc.name, opsPerTx, cr.name), func(t *testing.T) {
					wm, wr := tc.mk(), tc.mk()
					wm.SetOpsPerTx(opsPerTx)
					wr.SetOpsPerTx(opsPerTx)
					mm, mr := setUp(wm, 3), setUp(wr, 3)
					machineStream := wm.Stream(0, txns, sim.CoreRand(5, 0))
					refStream := sim.NewProgramStream(0, sim.CoreRand(5, 0), tc.ref(wr, 0, txns))

					var nowM, nowR sim.Cycle
					crashed := false
					for i := 0; ; i++ {
						opM, okM := machineStream.Next()
						opR, okR := refStream.Next()
						if okM != okR || opM != opR {
							t.Fatalf("op %d: state machine (%+v, %v), reference (%+v, %v)", i, opM, okM, opR, okR)
						}
						if !okM {
							break
						}
						if crashed {
							t.Fatalf("op %d issued after the crash sentinel: %+v", i, opM)
						}
						if cr.after >= 0 && i >= cr.after && opM.Kind == cr.kind {
							machineStream.Deliver(sim.Result{Latency: -1})
							refStream.Deliver(sim.Result{Latency: -1})
							crashed = true
							continue
						}
						resM, resR := mm.Exec(0, opM, nowM), mr.Exec(0, opR, nowR)
						if resM != resR {
							t.Fatalf("op %d (%+v): state machine result %+v, reference %+v", i, opM, resM, resR)
						}
						nowM, nowR = nowM+resM.Latency, nowR+resR.Latency
						machineStream.Deliver(resM)
						refStream.Deliver(resR)
					}
					if cr.after >= 0 && !crashed {
						t.Fatalf("run ended before a %v at op %d", cr.kind, cr.after)
					}
					if got := mm.CollectStats("Silo", tc.name); !crashed && got.Transactions != txns {
						t.Errorf("committed %d transactions, want %d", got.Transactions, txns)
					}
				})
			}
		}
	}
}
