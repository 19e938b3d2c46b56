package workload

import (
	"math/rand"

	"silo/internal/mem"
	"silo/internal/pmds"
	"silo/internal/pmheap"
	"silo/internal/sim"
)

// YCSBWL is the YCSB key-value workload from Whisper, configured like
// MorLog (§VI-A): a read/update mix over a persistent hash table, 20 %
// reads and 80 % updates by default, 64 B items.
type YCSBWL struct {
	TxShape
	name     string
	buckets  int
	keys     int
	readPct  int
	tables   []*pmds.HashTable
	keysByCo [][]mem.Word
}

// NewYCSB builds the YCSB workload: keys records preloaded into a
// buckets-bucket table per core, readPct percent point reads.
func NewYCSB(buckets, keys, readPct int) *YCSBWL {
	return &YCSBWL{name: "YCSB", buckets: buckets, keys: keys, readPct: readPct}
}

// Named returns the workload under a distinct registry name (the
// YCSB-A/B/C mixes).
func (w *YCSBWL) Named(name string) *YCSBWL {
	w.name = name
	return w
}

// Name implements Workload.
func (w *YCSBWL) Name() string { return w.name }

// Setup implements Workload.
func (w *YCSBWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.tables = w.tables[:0]
	w.keysByCo = w.keysByCo[:0]
	for c := 0; c < cores; c++ {
		h := pmds.NewHashTable(heap, c, w.buckets)
		ks := make([]mem.Word, 0, w.keys)
		for i := 0; i < w.keys; i++ {
			k := mem.Word(rng.Int63n(1<<40)) + 1
			if h.Put(direct, k, mem.Word(i)) {
				ks = append(ks, k)
			}
		}
		w.tables = append(w.tables, h)
		w.keysByCo = append(w.keysByCo, ks)
	}
}

// Stream implements Workload.
func (w *YCSBWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	h := w.tables[core]
	ks := w.keysByCo[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, i, _ int) {
		k := ks[ctx.Rand.Intn(len(ks))]
		if ctx.Rand.Intn(100) < w.readPct {
			h.Get(ctx, k)
		} else {
			h.UpdateValue(ctx, k, mem.Word(i))
		}
	})
}

// TATPWL models the telecom benchmark's dominant transactions (Fig. 4):
// a subscriber table of 64 B rows; 80 % reads (GET_SUBSCRIBER_DATA) and
// 20 % location updates writing two words (UPDATE_LOCATION) — the very
// small OLTP write sets the paper's Fig. 4 highlights.
type TATPWL struct {
	TxShape
	subscribers int
	tables      []mem.Addr
}

// NewTATP builds the TATP workload with the given subscribers per core.
func NewTATP(subscribers int) *TATPWL { return &TATPWL{subscribers: subscribers} }

// Name implements Workload.
func (w *TATPWL) Name() string { return "TATP" }

// Setup implements Workload.
func (w *TATPWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.tables = w.tables[:0]
	for c := 0; c < cores; c++ {
		base := heap.AllocLines(c, w.subscribers)
		for s := 0; s < w.subscribers; s++ {
			row := base + mem.Addr(s*mem.LineSize)
			direct.Store(row, mem.Word(s)+1)                // s_id
			direct.Store(row+8, mem.Word(rng.Int63()))      // sub_nbr
			direct.Store(row+16, 0)                         // bit/hex flags
			direct.Store(row+24, mem.Word(rng.Intn(1<<16))) // vlr_location
		}
		w.tables = append(w.tables, base)
	}
}

// Stream implements Workload.
func (w *TATPWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	base := w.tables[core]
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, i, _ int) {
		row := base + mem.Addr(ctx.Rand.Intn(w.subscribers)*mem.LineSize)
		if ctx.Rand.Intn(100) < 80 {
			// GET_SUBSCRIBER_DATA: read the row.
			for f := 0; f < 4; f++ {
				ctx.Load(row + mem.Addr(f*8))
			}
		} else {
			// UPDATE_LOCATION: read s_id, write vlr_location + flags.
			ctx.Load(row)
			ctx.Store(row+24, mem.Word(ctx.Rand.Intn(1<<16)))
			ctx.Store(row+16, mem.Word(i)&0xFF)
		}
	})
}

// BankWL models the banking benchmark (Fig. 4): random transfers between
// two accounts — two balance reads, two balance writes and an audit-log
// append per transaction.
type BankWL struct {
	TxShape
	accounts int
	tables   []mem.Addr
	auditPos []mem.Addr
}

// NewBank builds the Bank workload with the given accounts per core.
func NewBank(accounts int) *BankWL { return &BankWL{accounts: accounts} }

// Name implements Workload.
func (w *BankWL) Name() string { return "Bank" }

// Setup implements Workload.
func (w *BankWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.tables = w.tables[:0]
	w.auditPos = w.auditPos[:0]
	for c := 0; c < cores; c++ {
		base := heap.Alloc(c, w.accounts*mem.WordSize, mem.LineSize)
		for a := 0; a < w.accounts; a++ {
			direct.Store(base+mem.Addr(a*8), 1000)
		}
		w.tables = append(w.tables, base)
		w.auditPos = append(w.auditPos, heap.AllocLines(c, 4096))
	}
}

// Stream implements Workload.
func (w *BankWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	base := w.tables[core]
	audit := w.auditPos[core]
	auditLen := mem.Addr(4096 * mem.LineSize)
	return w.TxLoop(core, txns, rng, func(ctx *sim.Ctx, i, j int) {
		from := mem.Addr(ctx.Rand.Intn(w.accounts) * 8)
		to := mem.Addr(ctx.Rand.Intn(w.accounts) * 8)
		amt := mem.Word(ctx.Rand.Intn(100)) + 1
		bf := ctx.Load(base + from)
		bt := ctx.Load(base + to)
		ctx.Store(base+from, bf-amt)
		ctx.Store(base+to, bt+amt)
		slot := audit + (mem.Addr(i*w.OpsPerTx()+j)*16)%auditLen
		ctx.Store(slot, mem.Word(from)<<32|mem.Word(to))
		ctx.Store(slot+8, amt)
	})
}
