package machine

import (
	"sync"

	"silo/internal/pm"
	"silo/internal/pool"
)

// Recycler pools the heavy per-machine structures — the PM device's
// media/buffer tables, the golden-shadow index, and the per-core pending
// write tables — across machine lifetimes, so a fleet worker running
// thousands of short campaigns stops paying the table-regrowth and GC
// cost of building each machine from scratch. A nil *Recycler is valid
// and means the package's free lists (package pool), so every machine
// pools its parts on Release; the collector reclaims parts left idle. A
// fleet worker keeps its own Recycler, which measured faster than
// sync.Pools for the fleet (EXPERIMENTS, "Per-op bookkeeping"). (Cache
// per-way arrays and line records are pooled by package cache, under
// the same rule below.)
//
// A pooled part is clean when returned, not when taken: the put path
// resets it to a state observationally identical to a freshly
// constructed one (only storage capacity survives), and the take path
// uses it as is, applying only the new machine's configuration. The
// reset then costs what the finished run touched. The fresh-vs-reused
// equivalence test in the harness holds that line for full runs —
// including runs whose parts come back from a crashed campaign:
// identical run records and telemetry streams.
//
// A Recycler is safe for concurrent use — a mutex guards the pools,
// which keeps the fleet correct even when a wall-clock watchdog abandons
// a wedged campaign goroutine that later releases its machine — but it
// is designed for one recycler per fleet worker, where the lock is
// always uncontended.
type Recycler struct {
	mu      sync.Mutex
	devices []*pm.Device
	shadows []*shadowIndex
	writes  []*txWrites
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler { return &Recycler{} }

// The pools a nil *Recycler stands for.
var (
	devicePool pool.List[pm.Device]   // Reset
	shadowPool pool.List[shadowIndex] // Reset
	writesPool pool.List[txWrites]    // reset
)

// Caps keep one outsized campaign from pinning unbounded memory: a part
// whose retained footprint exceeds the cap is dropped to the GC on
// release, and a Recycler's pool depth is bounded for cluster campaigns
// that release many machines at once.
const (
	recycleMaxPartBytes = 32 << 20
	recycleMaxPool      = 64
)

// pop takes the newest part off a Recycler stack, or returns the zero
// value when it is empty.
func pop[T any](mu *sync.Mutex, stack *[]T) (v T) {
	mu.Lock()
	if n := len(*stack); n > 0 {
		v = (*stack)[n-1]
		*stack = (*stack)[:n-1]
	}
	mu.Unlock()
	return v
}

// push returns a reset part to a Recycler stack unless it is full.
func push[T any](mu *sync.Mutex, stack *[]T, v T) {
	mu.Lock()
	if len(*stack) < recycleMaxPool {
		*stack = append(*stack, v)
	}
	mu.Unlock()
}

func (r *Recycler) device(cfg pm.Config) *pm.Device {
	var d *pm.Device
	if r == nil {
		d = devicePool.Get()
	} else {
		d = pop(&r.mu, &r.devices)
	}
	if d == nil {
		return pm.New(cfg)
	}
	d.Recycle(cfg)
	return d
}

func (r *Recycler) putDevice(d *pm.Device) {
	if d.MemFootprint() > recycleMaxPartBytes {
		return
	}
	d.Reset()
	if r == nil {
		devicePool.Put(d)
	} else {
		push(&r.mu, &r.devices, d)
	}
}

func (r *Recycler) shadow() *shadowIndex {
	var t *shadowIndex
	if r == nil {
		t = shadowPool.Get()
	} else {
		t = pop(&r.mu, &r.shadows)
	}
	if t == nil {
		return newShadowIndex()
	}
	return t
}

func (r *Recycler) putShadow(t *shadowIndex) {
	if t.MemFootprint() > recycleMaxPartBytes {
		return
	}
	t.Reset()
	if r == nil {
		shadowPool.Put(t)
	} else {
		push(&r.mu, &r.shadows, t)
	}
}

func (r *Recycler) txWrites() *txWrites {
	var t *txWrites
	if r == nil {
		t = writesPool.Get()
	} else {
		t = pop(&r.mu, &r.writes)
	}
	if t == nil {
		return newTxWrites()
	}
	return t
}

func (r *Recycler) putTxWrites(t *txWrites) {
	t.reset()
	if r == nil {
		writesPool.Put(t)
	} else {
		push(&r.mu, &r.writes, t)
	}
}
