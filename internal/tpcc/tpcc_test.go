package tpcc

import (
	"math/rand"
	"testing"

	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/machine"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/pmheap"
	"silo/internal/sim"
	"silo/internal/stats"
	"silo/internal/workload"
)

func run(t *testing.T, mix bool, cores, txnsPerCore int) (*TPCC, stats.Run) {
	t.Helper()
	m := machine.New(machine.Config{
		Cores:  cores,
		PM:     pm.DefaultConfig(),
		Cache:  cache.DefaultHierarchyConfig(),
		Design: core.Factory(core.Options{}),
	})
	w := New(mix)
	heap := pmheap.New(pm.DefaultConfig().Layout, cores)
	w.Setup(workload.Direct(m.Device()), heap, cores, rand.New(rand.NewSource(13)))
	streams := make([]sim.OpStream, cores)
	for c := 0; c < cores; c++ {
		streams[c] = w.Stream(c, txnsPerCore, sim.CoreRand(13, c))
	}
	m.Engine(13).RunStreams(streams)
	return w, m.CollectStats("Silo", w.Name())
}

func TestNames(t *testing.T) {
	if New(false).Name() != "TPCC" || New(true).Name() != "TPCC-Mix" {
		t.Error("names")
	}
}

func TestNewOrderCommitsAndWrites(t *testing.T) {
	_, r := run(t, false, 1, 300)
	if r.Transactions != 300 {
		t.Fatalf("committed %d", r.Transactions)
	}
	perTx := float64(r.Stores) / float64(r.Transactions)
	// New-Order writes roughly 14–20 words in this scaled configuration.
	if perTx < 8 || perTx > 30 {
		t.Errorf("New-Order stores/tx = %.1f, outside the expected envelope", perTx)
	}
}

func TestMixCommits(t *testing.T) {
	_, r := run(t, true, 1, 500)
	if r.Transactions != 500 {
		t.Fatalf("committed %d", r.Transactions)
	}
	if r.Stores == 0 || r.Loads == 0 {
		t.Error("mix produced no traffic")
	}
}

func TestMultiCoreWarehousesIndependent(t *testing.T) {
	w, r := run(t, false, 2, 100)
	if r.Transactions != 200 {
		t.Fatalf("committed %d", r.Transactions)
	}
	if len(w.whs) != 2 {
		t.Fatal("warehouse count")
	}
	// Per-core warehouses must not share addresses (share-nothing).
	if w.whs[0].wh == w.whs[1].wh || w.whs[0].stock == w.whs[1].stock {
		t.Error("warehouses share PM addresses")
	}
}

// TestNewOrderSemantics drives newOrder directly against a plain map
// accessor and checks the database effects.
func TestNewOrderSemantics(t *testing.T) {
	acc := &mapAcc{words: map[uint64]uint64{}}
	w := New(false)
	heap := pmheap.New(pm.DefaultConfig().Layout, 1)
	w.Setup(acc, heap, 1, rand.New(rand.NewSource(1)))
	wh := w.whs[0]
	rng := rand.New(rand.NewSource(2))

	before := make([]uint64, districts)
	for d := 0; d < districts; d++ {
		before[d] = acc.words[uint64(wh.distRow(d))]
	}
	for i := 0; i < 50; i++ {
		w.newOrder(acc, 0, wh, rng)
	}
	// next_o_id advanced exactly once per order, summed over districts.
	var advanced uint64
	for d := 0; d < districts; d++ {
		advanced += acc.words[uint64(wh.distRow(d))] - before[d]
	}
	if advanced != 50 {
		t.Errorf("next_o_id advanced %d, want 50", advanced)
	}
	// Every district ring holds tail-head == number of orders placed there.
	var queued uint64
	for d := 0; d < districts; d++ {
		ring := wh.rings[d]
		queued += acc.words[uint64(ring)+8] - acc.words[uint64(ring)]
	}
	if queued != 50 {
		t.Errorf("new-order rings hold %d, want 50", queued)
	}
}

func TestDeliveryDrainsRings(t *testing.T) {
	acc := &mapAcc{words: map[uint64]uint64{}}
	w := New(true)
	heap := pmheap.New(pm.DefaultConfig().Layout, 1)
	w.Setup(acc, heap, 1, rand.New(rand.NewSource(1)))
	wh := w.whs[0]
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		w.newOrder(acc, 0, wh, rng)
	}
	for i := 0; i < 5; i++ {
		w.delivery(acc, wh, rng)
	}
	var queued uint64
	for d := 0; d < districts; d++ {
		ring := wh.rings[d]
		queued += acc.words[uint64(ring)+8] - acc.words[uint64(ring)]
	}
	if queued >= 30 {
		t.Errorf("delivery drained nothing: %d still queued", queued)
	}
	// Delivery on empty rings must be a no-op, not a crash.
	for i := 0; i < 20; i++ {
		w.delivery(acc, wh, rng)
	}
}

func TestReadOnlyTransactionsDoNotWrite(t *testing.T) {
	acc := &mapAcc{words: map[uint64]uint64{}}
	w := New(true)
	heap := pmheap.New(pm.DefaultConfig().Layout, 1)
	w.Setup(acc, heap, 1, rand.New(rand.NewSource(1)))
	wh := w.whs[0]
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		w.newOrder(acc, 0, wh, rng)
	}
	acc.stores = 0
	for i := 0; i < 20; i++ {
		w.orderStatus(acc, wh, rng)
		w.stockLevel(acc, wh, rng)
	}
	if acc.stores != 0 {
		t.Errorf("read-only transactions stored %d words", acc.stores)
	}
}

func TestPaymentUpdatesBalances(t *testing.T) {
	acc := &mapAcc{words: map[uint64]uint64{}}
	w := New(true)
	heap := pmheap.New(pm.DefaultConfig().Layout, 1)
	w.Setup(acc, heap, 1, rand.New(rand.NewSource(1)))
	wh := w.whs[0]
	ytdBefore := acc.words[uint64(wh.wh)]
	w.payment(acc, wh, rand.New(rand.NewSource(3)))
	if acc.words[uint64(wh.wh)] <= ytdBefore {
		t.Error("warehouse YTD not increased")
	}
}

// mapAcc is a pmds.Accessor over a plain map.
type mapAcc struct {
	words  map[uint64]uint64
	stores int
}

func (a *mapAcc) Load(addr mem.Addr) mem.Word { return mem.Word(a.words[uint64(addr)]) }
func (a *mapAcc) Store(addr mem.Addr, v mem.Word) {
	a.stores++
	a.words[uint64(addr)] = uint64(v)
}
