// Package tpcc implements a scaled-down TPC-C on the simulated PM heap:
// one warehouse per core (share-nothing, matching the paper's
// software-isolation assumption), all five transaction types. The paper
// uses New-Order alone for the throughput/traffic comparisons (§VI-A,
// "configured like MorLog") and the full five-type mix for the log-buffer
// capacity study (§VI-D); both variants are provided.
package tpcc

import (
	"math/rand"

	"silo/internal/mem"
	"silo/internal/pmds"
	"silo/internal/pmheap"
	"silo/internal/sim"
	"silo/internal/workload"
)

const (
	districts    = 10
	custPerDist  = 30
	items        = 1000
	ringCap      = 4096
	dirCap       = 4096
	maxOrderLine = 2 // order lines per New-Order: 1..maxOrderLine+? see newOrder
)

// warehouse holds the PM addresses of one core's warehouse.
type warehouse struct {
	wh    mem.Addr   // w0 ytd, w1 tax
	dist  mem.Addr   // districts lines: w0 next_o_id, w1 ytd, w2 tax
	cust  mem.Addr   // districts*custPerDist lines
	item  mem.Addr   // items lines (read-only): w0 price
	stock mem.Addr   // items lines: w0 qty, w1 ytd, w2 order_cnt
	rings []mem.Addr // per district: line0 = head/tail, then ringCap order refs
	dirs  []mem.Addr // per district: dirCap words mapping o_id -> order row
	hist  mem.Addr   // history append area
	histN int
}

// TPCC is the workload; it satisfies workload.Workload.
type TPCC struct {
	workload.TxShape
	mix  bool // all five transaction types vs New-Order only
	heap *pmheap.Heap
	whs  []*warehouse
}

// New returns the TPCC workload. mix=false runs only New-Order
// transactions; mix=true runs the standard five-type mix
// (45/43/4/4/4 New-Order/Payment/Order-Status/Delivery/Stock-Level).
func New(mix bool) *TPCC { return &TPCC{mix: mix} }

// Name implements workload.Workload.
func (t *TPCC) Name() string {
	if t.mix {
		return "TPCC-Mix"
	}
	return "TPCC"
}

// Setup implements workload.Workload.
func (t *TPCC) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	t.heap = heap
	t.whs = t.whs[:0]
	for c := 0; c < cores; c++ {
		w := &warehouse{
			wh:    heap.AllocLines(c, 1),
			dist:  heap.AllocLines(c, districts),
			cust:  heap.AllocLines(c, districts*custPerDist),
			item:  heap.AllocLines(c, items),
			stock: heap.AllocLines(c, items),
			hist:  heap.AllocLines(c, 8192),
		}
		direct.Store(w.wh, 0)
		direct.Store(w.wh+8, 7) // tax ‰
		for d := 0; d < districts; d++ {
			row := w.dist + mem.Addr(d*mem.LineSize)
			direct.Store(row, 1)    // next_o_id
			direct.Store(row+8, 0)  // ytd
			direct.Store(row+16, 5) // tax ‰
			ring := heap.AllocLines(c, 1+ringCap/mem.WordsPerLine)
			direct.Store(ring, 0)   // head
			direct.Store(ring+8, 0) // tail
			w.rings = append(w.rings, ring)
			dir := heap.Alloc(c, dirCap*mem.WordSize, mem.LineSize)
			w.dirs = append(w.dirs, dir)
		}
		for i := 0; i < districts*custPerDist; i++ {
			row := w.cust + mem.Addr(i*mem.LineSize)
			direct.Store(row, 5000) // balance
		}
		for i := 0; i < items; i++ {
			direct.Store(w.item+mem.Addr(i*mem.LineSize), mem.Word(rng.Intn(9900))+100) // price
			srow := w.stock + mem.Addr(i*mem.LineSize)
			direct.Store(srow, mem.Word(rng.Intn(90))+10) // qty
		}
		t.whs = append(t.whs, w)
	}
}

func (w *warehouse) distRow(d int) mem.Addr { return w.dist + mem.Addr(d*mem.LineSize) }
func (w *warehouse) custRow(d, c int) mem.Addr {
	return w.cust + mem.Addr((d*custPerDist+c)*mem.LineSize)
}
func (w *warehouse) itemRow(i int) mem.Addr  { return w.item + mem.Addr(i*mem.LineSize) }
func (w *warehouse) stockRow(i int) mem.Addr { return w.stock + mem.Addr(i*mem.LineSize) }

// ringPush appends an order reference to district d's new-order ring.
func (w *warehouse) ringPush(acc pmds.Accessor, d int, ref mem.Word) {
	ring := w.rings[d]
	tail := acc.Load(ring + 8)
	slot := ring + mem.LineSize + mem.Addr(uint64(tail)%ringCap*mem.WordSize)
	acc.Store(slot, ref)
	acc.Store(ring+8, tail+1)
}

// ringPop removes the oldest order reference, if any.
func (w *warehouse) ringPop(acc pmds.Accessor, d int) (mem.Word, bool) {
	ring := w.rings[d]
	head := acc.Load(ring)
	tail := acc.Load(ring + 8)
	if head == tail {
		return 0, false
	}
	slot := ring + mem.LineSize + mem.Addr(uint64(head)%ringCap*mem.WordSize)
	ref := acc.Load(slot)
	acc.Store(ring, head+1)
	return ref, true
}

// newOrder runs one New-Order transaction (inside an open tx).
func (t *TPCC) newOrder(acc pmds.Accessor, core int, w *warehouse, rng *rand.Rand) {
	d := rng.Intn(districts)
	c := rng.Intn(custPerDist)
	drow := w.distRow(d)
	wtax := acc.Load(w.wh + 8)
	dtax := acc.Load(drow + 16)
	oid := acc.Load(drow)
	acc.Store(drow, oid+1)
	acc.Load(w.custRow(d, c)) // customer discount/credit read

	olCnt := 1 + rng.Intn(maxOrderLine)
	// Order row + its order lines, allocated together.
	orow := t.heap.AllocLines(core, 1+olCnt)
	acc.Store(orow, oid)
	acc.Store(orow+8, mem.Word(c))
	acc.Store(orow+16, mem.Word(olCnt))
	acc.Store(orow+24, 0) // carrier: unassigned
	var total mem.Word
	for l := 0; l < olCnt; l++ {
		it := rng.Intn(items)
		price := acc.Load(w.itemRow(it))
		srow := w.stockRow(it)
		qty := acc.Load(srow)
		olQty := mem.Word(rng.Intn(10)) + 1
		if qty >= olQty+10 {
			qty -= olQty
		} else {
			qty += 91 - olQty
		}
		acc.Store(srow, qty)
		acc.Store(srow+8, acc.Load(srow+8)+olQty) // ytd
		ol := orow + mem.Addr((1+l)*mem.LineSize)
		amount := price * olQty
		acc.Store(ol, mem.Word(it))
		acc.Store(ol+8, olQty)
		acc.Store(ol+16, amount)
		acc.Store(ol+24, 0) // delivery date
		total += amount
	}
	_ = wtax + dtax
	// Register the order and queue it for delivery.
	dir := w.dirs[d]
	acc.Store(dir+mem.Addr(uint64(oid)%dirCap*mem.WordSize), mem.Word(orow))
	w.ringPush(acc, d, mem.Word(orow))
}

// payment runs one Payment transaction.
func (t *TPCC) payment(acc pmds.Accessor, w *warehouse, rng *rand.Rand) {
	d := rng.Intn(districts)
	c := rng.Intn(custPerDist)
	amt := mem.Word(rng.Intn(5000)) + 1
	acc.Store(w.wh, acc.Load(w.wh)+amt) // w_ytd
	drow := w.distRow(d)
	acc.Store(drow+8, acc.Load(drow+8)+amt) // d_ytd
	crow := w.custRow(d, c)
	acc.Store(crow, acc.Load(crow)-amt)     // balance
	acc.Store(crow+8, acc.Load(crow+8)+amt) // ytd_payment
	acc.Store(crow+16, acc.Load(crow+16)+1) // payment_cnt
	h := w.hist + mem.Addr((w.histN%8192)*mem.LineSize)
	w.histN++
	acc.Store(h, mem.Word(d)<<32|mem.Word(c))
	acc.Store(h+8, amt)
}

// orderStatus runs one Order-Status transaction (read-only).
func (t *TPCC) orderStatus(acc pmds.Accessor, w *warehouse, rng *rand.Rand) {
	d := rng.Intn(districts)
	c := rng.Intn(custPerDist)
	acc.Load(w.custRow(d, c))
	oid := acc.Load(w.distRow(d))
	if oid <= 1 {
		return
	}
	oid--
	orow := mem.Addr(acc.Load(w.dirs[d] + mem.Addr(uint64(oid)%dirCap*mem.WordSize)))
	if orow == 0 {
		return
	}
	olCnt := int(acc.Load(orow + 16))
	for l := 0; l < olCnt; l++ {
		ol := orow + mem.Addr((1+l)*mem.LineSize)
		acc.Load(ol)
		acc.Load(ol + 16)
	}
}

// delivery runs one Delivery transaction: pop the oldest undelivered
// order in every district, stamp it and credit the customer.
func (t *TPCC) delivery(acc pmds.Accessor, w *warehouse, rng *rand.Rand) {
	carrier := mem.Word(rng.Intn(10)) + 1
	for d := 0; d < districts; d++ {
		ref, ok := w.ringPop(acc, d)
		if !ok {
			continue
		}
		orow := mem.Addr(ref)
		acc.Store(orow+24, carrier)
		olCnt := int(acc.Load(orow + 16))
		var total mem.Word
		for l := 0; l < olCnt; l++ {
			ol := orow + mem.Addr((1+l)*mem.LineSize)
			total += acc.Load(ol + 16)
			acc.Store(ol+24, 20260705) // delivery date
		}
		c := int(acc.Load(orow+8)) % custPerDist
		crow := w.custRow(d, c)
		acc.Store(crow, acc.Load(crow)+total)
		acc.Store(crow+24, acc.Load(crow+24)+1) // delivery_cnt
	}
}

// stockLevel runs one Stock-Level transaction (read-only).
func (t *TPCC) stockLevel(acc pmds.Accessor, w *warehouse, rng *rand.Rand) {
	d := rng.Intn(districts)
	next := acc.Load(w.distRow(d))
	low := 0
	for k := mem.Word(1); k <= 5 && k < next; k++ {
		oid := next - k
		orow := mem.Addr(acc.Load(w.dirs[d] + mem.Addr(uint64(oid)%dirCap*mem.WordSize)))
		if orow == 0 {
			continue
		}
		olCnt := int(acc.Load(orow + 16))
		for l := 0; l < olCnt; l++ {
			it := int(acc.Load(orow+mem.Addr((1+l)*mem.LineSize))) % items
			if acc.Load(w.stockRow(it)) < 15 {
				low++
			}
		}
	}
}

// Stream implements workload.Workload: the five transaction profiles are
// deeply data-dependent (directory walks, order-line scans), so each
// transaction is written as Go code over a sim.Ctx, one unit of the
// engine's unit stream.
func (t *TPCC) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	w := t.whs[core]
	return t.TxLoop(core, txns, rng, func(ctx *sim.Ctx, _, _ int) {
		if !t.mix {
			t.newOrder(ctx, core, w, ctx.Rand)
			return
		}
		switch p := ctx.Rand.Intn(100); {
		case p < 45:
			t.newOrder(ctx, core, w, ctx.Rand)
		case p < 88:
			t.payment(ctx, w, ctx.Rand)
		case p < 92:
			t.orderStatus(ctx, w, ctx.Rand)
		case p < 96:
			t.delivery(ctx, w, ctx.Rand)
		default:
			t.stockLevel(ctx, w, ctx.Rand)
		}
	})
}
