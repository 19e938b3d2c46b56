package cache

import (
	"math/rand"
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

// BenchmarkCacheAccess times one access through a default (Table II)
// one-core hierarchy, served by the named level. Each case cycles
// through a working set sized so every access misses the levels above
// the target and hits it (LRU evicts a cyclic set larger than a level):
// one line for L1Hit, 128 KB for L2Hit, 2 MB for L3Hit and 16 MB for
// Miss and DirtyMiss, which fill from a zero-latency backing store. The
// lower-level cases include the chain of records each fill hands down a
// level. All cases but DirtyMiss are loads, so every LLC victim is
// clean and its record is freed at once; DirtyMiss stores, so every LLC
// victim is dirty and leaves through the write-back callback before its
// record is freed.
//
// Two cases stress the recency word. L1HitRoundRobin cycles through the
// 8 lines of one L1 set, so no hit is on the set's most recent way: each
// one misses the probe, scans the tags and moves the LRU way to the
// front. L2HitRandom visits L2Hit's working set in a seeded random
// order, so which L1 set each access lands in, and so each L1 victim,
// depends on the data.
func BenchmarkCacheAccess(b *testing.B) {
	l1Sets := DefaultHierarchyConfig().L1.Size / (mem.LineSize * DefaultHierarchyConfig().L1.Ways)
	for _, tc := range []struct {
		name   string
		lines  int
		stride int  // bytes between working-set lines; 0 means mem.LineSize
		random bool // visit the working set in a seeded random order
		store  bool
		level  func(h *Hierarchy) *int64
	}{
		{"L1Hit", 1, 0, false, false, func(h *Hierarchy) *int64 { return &h.l1[0].Hits }},
		{"L1HitRoundRobin", 8, l1Sets * mem.LineSize, false, false, func(h *Hierarchy) *int64 { return &h.l1[0].Hits }},
		{"L2Hit", 128 << 10 / mem.LineSize, 0, false, false, func(h *Hierarchy) *int64 { return &h.l2[0].Hits }},
		{"L2HitRandom", 128 << 10 / mem.LineSize, 0, true, false, func(h *Hierarchy) *int64 { return &h.l2[0].Hits }},
		{"L3Hit", 2 << 20 / mem.LineSize, 0, false, false, func(h *Hierarchy) *int64 { return &h.l3.Hits }},
		{"Miss", 16 << 20 / mem.LineSize, 0, false, false, func(h *Hierarchy) *int64 { return &h.l3.Misses }},
		{"DirtyMiss", 16 << 20 / mem.LineSize, 0, false, true, func(h *Hierarchy) *int64 { return &h.l3.Misses }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := &quietBackend{}
			h := NewHierarchy(1, DefaultHierarchyConfig(), q.fill, q.writeback)
			defer h.Release()
			stride := tc.stride
			if stride == 0 {
				stride = mem.LineSize
			}
			var perm []int
			if tc.random {
				perm = rand.New(rand.NewSource(1)).Perm(tc.lines)
			}
			var now sim.Cycle
			i := 0
			access := func() {
				now++
				j := i
				if perm != nil {
					j = perm[i]
				}
				addr := mem.Addr(j * stride)
				if tc.store {
					h.Store(0, addr, mem.Word(now), now)
				} else {
					h.Load(0, addr, now)
				}
				if i++; i == tc.lines {
					i = 0
				}
			}
			for w := 0; w < 2*tc.lines; w++ {
				access() // warm the arena and every way the working set reaches
			}
			served := tc.level(h)
			start, wbs := *served, q.writebacks
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				access()
			}
			b.StopTimer()
			if got := *served - start; got != int64(b.N) {
				b.Fatalf("%d of %d accesses served by the target level", got, b.N)
			}
			want := 0 // a load leaves every line clean
			if tc.store {
				want = b.N
			}
			if got := q.writebacks - wbs; got != want {
				b.Fatalf("%d write-backs in %d accesses, want %d", got, b.N, want)
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
