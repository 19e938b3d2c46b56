package machine

import (
	"sync"

	"silo/internal/pm"
)

// Recycler pools the heavy per-machine structures — the PM device's
// media/buffer tables, the golden-shadow table, and the per-core pending
// write tables — across machine lifetimes, so a fleet worker running
// thousands of short campaigns stops paying the table-regrowth and GC
// cost of building each machine from scratch. (Cache per-way arrays and
// line records are pooled globally by package cache, under the same rule
// below.)
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
	shadows []*shadowTable
	writes  []*txWrites
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler { return &Recycler{} }

// Caps keep one outsized campaign from pinning unbounded memory: a part
// whose retained footprint exceeds the cap is dropped to the GC on
// release, and pool depth is bounded for cluster campaigns that release
// many machines at once.
const (
	recycleMaxPartBytes = 32 << 20
	recycleMaxPool      = 64
)

func (r *Recycler) device(cfg pm.Config) *pm.Device {
	r.mu.Lock()
	var d *pm.Device
	if n := len(r.devices); n > 0 {
		d = r.devices[n-1]
		r.devices = r.devices[:n-1]
	}
	r.mu.Unlock()
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
	r.mu.Lock()
	if len(r.devices) < recycleMaxPool {
		r.devices = append(r.devices, d)
	}
	r.mu.Unlock()
}

func (r *Recycler) shadow() *shadowTable {
	r.mu.Lock()
	var t *shadowTable
	if n := len(r.shadows); n > 0 {
		t = r.shadows[n-1]
		r.shadows = r.shadows[:n-1]
	}
	r.mu.Unlock()
	if t == nil {
		return newShadowTable()
	}
	return t
}

func (r *Recycler) putShadow(t *shadowTable) {
	if t.memFootprint() > recycleMaxPartBytes {
		return
	}
	t.reset()
	r.mu.Lock()
	if len(r.shadows) < recycleMaxPool {
		r.shadows = append(r.shadows, t)
	}
	r.mu.Unlock()
}

func (r *Recycler) txWrites() *txWrites {
	r.mu.Lock()
	var t *txWrites
	if n := len(r.writes); n > 0 {
		t = r.writes[n-1]
		r.writes = r.writes[:n-1]
	}
	r.mu.Unlock()
	if t == nil {
		return newTxWrites()
	}
	return t
}

func (r *Recycler) putTxWrites(t *txWrites) {
	t.reset()
	r.mu.Lock()
	if len(r.writes) < recycleMaxPool {
		r.writes = append(r.writes, t)
	}
	r.mu.Unlock()
}
