package workload

import (
	"math/rand"

	"silo/internal/mem"
	"silo/internal/pmds"
	"silo/internal/pmheap"
	"silo/internal/sim"
)

// ArrayWL randomly swaps two 64 B elements per transaction (Table III).
type ArrayWL struct {
	TxShape
	n    int
	arrs []*pmds.Array
}

// NewArray builds the Array workload with n elements per core.
func NewArray(n int) *ArrayWL { return &ArrayWL{n: n} }

// Name implements Workload.
func (w *ArrayWL) Name() string { return "Array" }

// Setup implements Workload.
func (w *ArrayWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.arrs = w.arrs[:0]
	for c := 0; c < cores; c++ {
		w.arrs = append(w.arrs, pmds.NewArray(direct, heap, c, w.n))
	}
}

// Stream implements Workload.
func (w *ArrayWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	arr := w.arrs[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, _, _ int) {
		a := ctx.Rand.Intn(w.n)
		b := ctx.Rand.Intn(w.n)
		arr.Swap(ctx, a, b)
	})
}

// BtreeWL randomly inserts keys into a per-core B-tree.
type BtreeWL struct {
	TxShape
	keyRange int
	preload  int
	trees    []*pmds.BTree
}

// NewBtree builds the Btree workload: keys uniform in [1, keyRange],
// preload keys inserted during setup.
func NewBtree(keyRange, preload int) *BtreeWL {
	return &BtreeWL{keyRange: keyRange, preload: preload}
}

// Name implements Workload.
func (w *BtreeWL) Name() string { return "Btree" }

// Setup implements Workload.
func (w *BtreeWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.trees = w.trees[:0]
	for c := 0; c < cores; c++ {
		t := pmds.NewBTree(direct, heap, c)
		for i := 0; i < w.preload; i++ {
			t.Insert(direct, mem.Word(rng.Intn(w.keyRange))+1)
		}
		w.trees = append(w.trees, t)
	}
}

// Stream implements Workload natively: the tree's insert state machine
// (pmds.BTree.InsertStream) drives the engine with no Ctx calls and no
// golden peek per load. Running BTree.Insert in a TxLoop instead — the
// form the machine must match op for op — is ≈ 22 % slower on
// btree-silo (run_ms_p50), mostly in answering each load from the
// golden state at issue (EXPERIMENTS "Hand-written machines vs
// transaction loops").
func (w *BtreeWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	return w.trees[core].InsertStream(rng, txns, w.OpsPerTx(), w.keyRange)
}

// HashWL randomly inserts key/value items into a per-core hash table.
type HashWL struct {
	TxShape
	buckets int
	preload int
	tables  []*pmds.HashTable
}

// NewHash builds the Hash workload.
func NewHash(buckets, preload int) *HashWL {
	return &HashWL{buckets: buckets, preload: preload}
}

// Name implements Workload.
func (w *HashWL) Name() string { return "Hash" }

// Setup implements Workload.
func (w *HashWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.tables = w.tables[:0]
	for c := 0; c < cores; c++ {
		h := pmds.NewHashTable(heap, c, w.buckets)
		for i := 0; i < w.preload; i++ {
			h.Put(direct, mem.Word(rng.Int63n(1<<40))+1, mem.Word(i))
		}
		w.tables = append(w.tables, h)
	}
}

// Stream implements Workload.
func (w *HashWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	h := w.tables[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, i, _ int) {
		h.Put(ctx, mem.Word(ctx.Rand.Int63n(1<<40))+1, mem.Word(i))
	})
}

// QueueWL enqueues and dequeues one element per transaction.
type QueueWL struct {
	TxShape
	capacity int
	preload  int
	queues   []*pmds.Queue
}

// NewQueue builds the Queue workload.
func NewQueue(capacity, preload int) *QueueWL {
	return &QueueWL{capacity: capacity, preload: preload}
}

// Name implements Workload.
func (w *QueueWL) Name() string { return "Queue" }

// Setup implements Workload.
func (w *QueueWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.queues = w.queues[:0]
	for c := 0; c < cores; c++ {
		q := pmds.NewQueue(direct, heap, c, w.capacity)
		for i := 0; i < w.preload; i++ {
			q.Enqueue(direct, mem.Word(rng.Int63()))
		}
		w.queues = append(w.queues, q)
	}
}

// Stream implements Workload.
func (w *QueueWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	q := w.queues[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, _, _ int) {
		q.Enqueue(ctx, mem.Word(ctx.Rand.Int63()))
		q.Dequeue(ctx)
	})
}

// RBtreeWL randomly inserts keys into a per-core red-black tree.
type RBtreeWL struct {
	TxShape
	keyRange int
	preload  int
	trees    []*pmds.RBTree
}

// NewRBtree builds the RBtree workload.
func NewRBtree(keyRange, preload int) *RBtreeWL {
	return &RBtreeWL{keyRange: keyRange, preload: preload}
}

// Name implements Workload.
func (w *RBtreeWL) Name() string { return "RBtree" }

// Setup implements Workload.
func (w *RBtreeWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.trees = w.trees[:0]
	for c := 0; c < cores; c++ {
		t := pmds.NewRBTree(direct, heap, c)
		for i := 0; i < w.preload; i++ {
			k := mem.Word(rng.Intn(w.keyRange)) + 1
			t.Insert(direct, k, k*3)
		}
		w.trees = append(w.trees, t)
	}
}

// Stream implements Workload.
func (w *RBtreeWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	t := w.trees[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, _, _ int) {
		k := mem.Word(ctx.Rand.Intn(w.keyRange)) + 1
		t.Insert(ctx, k, k*3)
	})
}

// RtreeWL inserts into the PMDK-style radix tree (Fig. 4).
type RtreeWL struct {
	TxShape
	keyBits int
	trees   []*pmds.RadixTree
}

// NewRtree builds the Rtree workload over keyBits-bit keys.
func NewRtree(keyBits int) *RtreeWL { return &RtreeWL{keyBits: keyBits} }

// Name implements Workload.
func (w *RtreeWL) Name() string { return "Rtree" }

// Setup implements Workload.
func (w *RtreeWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.trees = w.trees[:0]
	for c := 0; c < cores; c++ {
		t := pmds.NewRadixTree(direct, heap, c, w.keyBits)
		for i := 0; i < 1000; i++ {
			k := mem.Word(rng.Intn(1 << w.keyBits))
			t.Insert(direct, k, k+7)
		}
		w.trees = append(w.trees, t)
	}
}

// Stream implements Workload.
func (w *RtreeWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	t := w.trees[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, _, _ int) {
		k := mem.Word(ctx.Rand.Intn(1 << w.keyBits))
		t.Insert(ctx, k, k+7)
	})
}

// CtrieWL inserts into the PMDK-style crit-bit trie (Fig. 4).
type CtrieWL struct {
	TxShape
	keyRange int64
	tries    []*pmds.CritBitTrie
}

// NewCtrie builds the Ctrie workload with keys uniform in [1, keyRange].
func NewCtrie(keyRange int64) *CtrieWL { return &CtrieWL{keyRange: keyRange} }

// Name implements Workload.
func (w *CtrieWL) Name() string { return "Ctrie" }

// Setup implements Workload.
func (w *CtrieWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.tries = w.tries[:0]
	for c := 0; c < cores; c++ {
		t := pmds.NewCritBitTrie(direct, heap, c)
		for i := 0; i < 1000; i++ {
			k := mem.Word(rng.Int63n(w.keyRange)) + 1
			t.Insert(direct, k, k^0xFF)
		}
		w.tries = append(w.tries, t)
	}
}

// Stream implements Workload.
func (w *CtrieWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	t := w.tries[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, _, _ int) {
		k := mem.Word(ctx.Rand.Int63n(w.keyRange)) + 1
		t.Insert(ctx, k, k^0xFF)
	})
}
