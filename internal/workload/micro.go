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

// Stream implements Workload as a hand-written state machine: the swap's
// sixteen loads and sixteen stores are scheduled directly, with no
// program frame at all (measurably cheaper than the coroutine; see
// EXPERIMENTS "Hand-written machines vs coroutine"). The op and
// random-draw order is that of the loop "TxBegin; per swap draw a then b
// and arr.Swap(a, b); TxEnd": per swap, interleave L a_w/L b_w for
// w=0..7, then S a_w/S b_w.
func (w *ArrayWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	return &arrayStream{arr: w.arrs[core], n: w.n, ops: w.OpsPerTx(), txns: txns, rng: rng}
}

const (
	arrPhaseBegin = iota
	arrPhaseLoad
	arrPhaseStore
	arrPhaseEnd
)

type arrayStream struct {
	arr  *pmds.Array
	n    int
	ops  int // swaps per transaction
	txns int
	rng  *rand.Rand

	i, j   int // transaction index, swap index within it
	a, b   int // current swap's element indices
	w      int // word index within the swap (0..ElemWords-1)
	side   int // 0 = element a, 1 = element b
	phase  int
	ea, eb [pmds.ElemWords]mem.Word // loaded element contents
	done   bool
}

func (s *arrayStream) Next() (sim.Op, bool) {
	if s.done || s.i >= s.txns {
		return sim.Op{}, false
	}
	switch s.phase {
	case arrPhaseBegin:
		return sim.Op{Kind: sim.OpTxBegin}, true
	case arrPhaseLoad:
		if s.side == 0 {
			return sim.Op{Kind: sim.OpLoad, Addr: s.arr.Elem(s.a, s.w)}, true
		}
		return sim.Op{Kind: sim.OpLoad, Addr: s.arr.Elem(s.b, s.w)}, true
	case arrPhaseStore:
		if s.side == 0 {
			return sim.Op{Kind: sim.OpStore, Addr: s.arr.Elem(s.a, s.w), Data: s.eb[s.w]}, true
		}
		return sim.Op{Kind: sim.OpStore, Addr: s.arr.Elem(s.b, s.w), Data: s.ea[s.w]}, true
	default:
		return sim.Op{Kind: sim.OpTxEnd}, true
	}
}

func (s *arrayStream) Deliver(r sim.Result) {
	if r.Latency < 0 {
		s.done = true
		return
	}
	switch s.phase {
	case arrPhaseBegin:
		s.startSwap()
	case arrPhaseLoad:
		if s.side == 0 {
			s.ea[s.w] = r.Value
			s.side = 1
			return
		}
		s.eb[s.w] = r.Value
		s.side = 0
		if s.w++; s.w == pmds.ElemWords {
			s.w, s.phase = 0, arrPhaseStore
		}
	case arrPhaseStore:
		if s.side == 0 {
			s.side = 1
			return
		}
		s.side = 0
		if s.w++; s.w < pmds.ElemWords {
			return
		}
		if s.j++; s.j < s.ops {
			s.startSwap()
		} else {
			s.phase = arrPhaseEnd
		}
	default: // TxEnd
		s.i++
		s.j = 0
		s.phase = arrPhaseBegin
	}
}

// startSwap draws the next swap's element pair (a, then b) and arms the
// load phase.
func (s *arrayStream) startSwap() {
	s.a = s.rng.Intn(s.n)
	s.b = s.rng.Intn(s.n)
	s.w, s.side, s.phase = 0, 0, arrPhaseLoad
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
// (pmds.BTree.InsertStream) drives the engine with no coroutine at all —
// about twice as fast as running BTree.Insert in a loop on the
// coroutine, which is the form it must match op for op.
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
	return sim.NewProgramStream(core, rng, func(ctx *sim.Ctx) {
		for i := 0; i < txns; i++ {
			ctx.TxBegin()
			for j := 0; j < w.OpsPerTx(); j++ {
				h.Put(ctx, mem.Word(ctx.Rand.Int63n(1<<40))+1, mem.Word(i))
			}
			ctx.TxEnd()
		}
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
	return sim.NewProgramStream(core, rng, func(ctx *sim.Ctx) {
		for i := 0; i < txns; i++ {
			ctx.TxBegin()
			for j := 0; j < w.OpsPerTx(); j++ {
				q.Enqueue(ctx, mem.Word(ctx.Rand.Int63()))
				q.Dequeue(ctx)
			}
			ctx.TxEnd()
		}
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
	return sim.NewProgramStream(core, rng, func(ctx *sim.Ctx) {
		for i := 0; i < txns; i++ {
			ctx.TxBegin()
			for j := 0; j < w.OpsPerTx(); j++ {
				k := mem.Word(ctx.Rand.Intn(w.keyRange)) + 1
				t.Insert(ctx, k, k*3)
			}
			ctx.TxEnd()
		}
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
	return sim.NewProgramStream(core, rng, func(ctx *sim.Ctx) {
		for i := 0; i < txns; i++ {
			ctx.TxBegin()
			for j := 0; j < w.OpsPerTx(); j++ {
				k := mem.Word(ctx.Rand.Intn(1 << w.keyBits))
				t.Insert(ctx, k, k+7)
			}
			ctx.TxEnd()
		}
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
	return sim.NewProgramStream(core, rng, func(ctx *sim.Ctx) {
		for i := 0; i < txns; i++ {
			ctx.TxBegin()
			for j := 0; j < w.OpsPerTx(); j++ {
				k := mem.Word(ctx.Rand.Int63n(w.keyRange)) + 1
				t.Insert(ctx, k, k^0xFF)
			}
			ctx.TxEnd()
		}
	})
}
