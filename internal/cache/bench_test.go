package cache

import (
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

// BenchmarkCacheAccess times one Load through a default (Table II)
// one-core hierarchy, served by the named level. Each case cycles
// through a working set sized so every access misses the levels above
// the target and hits it (LRU evicts a cyclic set larger than a level):
// one line for L1Hit, 128 KB for L2Hit, 2 MB for L3Hit and 16 MB for
// Miss, which fills from a zero-latency backing store. The lower-level
// cases include the demotion chain each fill sets off.
func BenchmarkCacheAccess(b *testing.B) {
	for _, tc := range []struct {
		name  string
		lines int
		level func(h *Hierarchy) *int64
	}{
		{"L1Hit", 1, func(h *Hierarchy) *int64 { return &h.l1[0].Hits }},
		{"L2Hit", 128 << 10 / mem.LineSize, func(h *Hierarchy) *int64 { return &h.l2[0].Hits }},
		{"L3Hit", 2 << 20 / mem.LineSize, func(h *Hierarchy) *int64 { return &h.l3.Hits }},
		{"Miss", 16 << 20 / mem.LineSize, func(h *Hierarchy) *int64 { return &h.l3.Misses }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := &quietBackend{}
			h := NewHierarchy(1, DefaultHierarchyConfig(), q.fill, q.writeback)
			defer h.Release()
			var now sim.Cycle
			i := 0
			load := func() {
				now++
				h.Load(0, mem.Addr(i*mem.LineSize), now)
				if i++; i == tc.lines {
					i = 0
				}
			}
			for w := 0; w < 2*tc.lines; w++ {
				load() // bind every way the working set reaches
			}
			served := tc.level(h)
			start := *served
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				load()
			}
			b.StopTimer()
			if got := *served - start; got != int64(b.N) {
				b.Fatalf("%d of %d accesses served by the target level", got, b.N)
			}
		})
	}
}

// BenchmarkNewHierarchy times building a default 8-core hierarchy from
// an empty pool, the cost a machine pays when no released arrays are
// left to recycle. Per-way arrays wait for each level's first fill, so
// this is the Cache structs alone.
func BenchmarkNewHierarchy(b *testing.B) {
	q := &quietBackend{}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		emptyPools()
		NewHierarchy(8, DefaultHierarchyConfig(), q.fill, q.writeback)
	}
}
