package workload

import (
	"math/rand"

	"silo/internal/mem"
	"silo/internal/pmds"
	"silo/internal/pmheap"
	"silo/internal/sim"
)

// BPtreeWL drives the FAST&FAIR-style B+-tree: random inserts with an
// occasional short range scan, the access pattern of a PM index serving
// an OLTP secondary index.
type BPtreeWL struct {
	TxShape
	keyRange int
	preload  int
	trees    []*pmds.BPTree
}

// NewBPtree builds the B+-tree workload.
func NewBPtree(keyRange, preload int) *BPtreeWL {
	return &BPtreeWL{keyRange: keyRange, preload: preload}
}

// Name implements Workload.
func (w *BPtreeWL) Name() string { return "BPtree" }

// Setup implements Workload.
func (w *BPtreeWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.trees = w.trees[:0]
	for c := 0; c < cores; c++ {
		t := pmds.NewBPTree(direct, heap, c)
		for i := 0; i < w.preload; i++ {
			k := mem.Word(rng.Intn(w.keyRange)) + 1
			t.Insert(direct, k, k*2)
		}
		w.trees = append(w.trees, t)
	}
}

// Stream implements Workload.
func (w *BPtreeWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	t := w.trees[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, _, _ int) {
		k := mem.Word(ctx.Rand.Intn(w.keyRange)) + 1
		switch p := ctx.Rand.Intn(100); {
		case p < 70:
			t.Insert(ctx, k, k*2)
		case p < 85:
			t.Delete(ctx, k)
		default:
			t.Scan(ctx, k, 8, func(mem.Word, mem.Word) {})
		}
	})
}

// LevelHashWL drives the two-level write-optimized hash with churn.
type LevelHashWL struct {
	TxShape
	topBuckets int
	keySpan    int64
	preload    int
	tables     []*pmds.LevelHash
}

// NewLevelHash builds the level-hashing workload.
func NewLevelHash(topBuckets, preload int, keySpan int64) *LevelHashWL {
	return &LevelHashWL{topBuckets: topBuckets, preload: preload, keySpan: keySpan}
}

// Name implements Workload.
func (w *LevelHashWL) Name() string { return "LevelHash" }

// Setup implements Workload.
func (w *LevelHashWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.tables = w.tables[:0]
	for c := 0; c < cores; c++ {
		h := pmds.NewLevelHash(heap, c, w.topBuckets)
		for i := 0; i < w.preload; i++ {
			h.Insert(direct, mem.Word(rng.Int63n(w.keySpan))+1, mem.Word(i))
		}
		w.tables = append(w.tables, h)
	}
}

// Stream implements Workload: insert/delete churn keeps the load steady
// below the movement ceiling so inserts stay one-movement-bounded.
func (w *LevelHashWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	h := w.tables[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, i, _ int) {
		k := mem.Word(ctx.Rand.Int63n(w.keySpan)) + 1
		switch p := ctx.Rand.Intn(100); {
		case p < 45:
			h.Insert(ctx, k, mem.Word(i))
		case p < 80:
			h.Delete(ctx, k)
		default:
			h.Get(ctx, k)
		}
	})
}
