package workload

import (
	"math/rand"

	"silo/internal/mem"
	"silo/internal/pmds"
	"silo/internal/pmheap"
	"silo/internal/sim"
)

// HashMixWL is a churn workload over the persistent hash table: 50 %
// inserts, 30 % deletes, 20 % lookups per operation. It exercises the
// tombstone path and gives crash-injection tests a delete-heavy write
// pattern the paper's insert-only benchmarks never produce.
type HashMixWL struct {
	TxShape
	buckets int
	preload int
	keySpan int64
	tables  []*pmds.HashTable
}

// NewHashMix builds the hash churn workload.
func NewHashMix(buckets, preload int, keySpan int64) *HashMixWL {
	return &HashMixWL{buckets: buckets, preload: preload, keySpan: keySpan}
}

// Name implements Workload.
func (w *HashMixWL) Name() string { return "HashMix" }

// Setup implements Workload.
func (w *HashMixWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.tables = w.tables[:0]
	for c := 0; c < cores; c++ {
		h := pmds.NewHashTable(heap, c, w.buckets)
		for i := 0; i < w.preload; i++ {
			h.Put(direct, mem.Word(rng.Int63n(w.keySpan))+1, mem.Word(i))
		}
		w.tables = append(w.tables, h)
	}
}

// Stream implements Workload.
func (w *HashMixWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	h := w.tables[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, i, _ int) {
		k := mem.Word(ctx.Rand.Int63n(w.keySpan)) + 1
		switch p := ctx.Rand.Intn(100); {
		case p < 50:
			h.Put(ctx, k, mem.Word(i))
		case p < 80:
			h.Delete(ctx, k)
		default:
			h.Get(ctx, k)
		}
	})
}

// RBtreeMixWL is insert/delete churn over the red-black tree: rotations
// and recolorings run in both directions, scattering pointer writes.
type RBtreeMixWL struct {
	TxShape
	keyRange int
	preload  int
	trees    []*pmds.RBTree
}

// NewRBtreeMix builds the RB-tree churn workload.
func NewRBtreeMix(keyRange, preload int) *RBtreeMixWL {
	return &RBtreeMixWL{keyRange: keyRange, preload: preload}
}

// Name implements Workload.
func (w *RBtreeMixWL) Name() string { return "RBtreeMix" }

// Setup implements Workload.
func (w *RBtreeMixWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.trees = w.trees[:0]
	for c := 0; c < cores; c++ {
		t := pmds.NewRBTree(direct, heap, c)
		for i := 0; i < w.preload; i++ {
			k := mem.Word(rng.Intn(w.keyRange)) + 1
			t.Insert(direct, k, k)
		}
		w.trees = append(w.trees, t)
	}
}

// Stream implements Workload.
func (w *RBtreeMixWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	t := w.trees[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, i, _ int) {
		k := mem.Word(ctx.Rand.Intn(w.keyRange)) + 1
		if ctx.Rand.Intn(100) < 60 {
			t.Insert(ctx, k, mem.Word(i))
		} else {
			t.Delete(ctx, k)
		}
	})
}
