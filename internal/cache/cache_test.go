package cache

import (
	"math/rand"
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

// testBackend is a word-addressable backing store standing in for PM.
type testBackend struct {
	words      map[mem.Addr]mem.Word
	fills      int
	writebacks []mem.Addr
}

func newBackend() *testBackend {
	return &testBackend{words: make(map[mem.Addr]mem.Word)}
}

func (b *testBackend) fill(la mem.Addr, now sim.Cycle, line *[mem.LineSize]byte) sim.Cycle {
	b.fills++
	for w := 0; w < mem.WordsPerLine; w++ {
		v := b.words[la+mem.Addr(w*mem.WordSize)]
		for i := 0; i < 8; i++ {
			line[w*8+i] = byte(v >> (8 * i))
		}
	}
	return 100
}

func (b *testBackend) writeback(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	b.writebacks = append(b.writebacks, la)
	for w := 0; w < mem.WordsPerLine; w++ {
		var v mem.Word
		for i := 7; i >= 0; i-- {
			v = v<<8 | mem.Word(data[w*8+i])
		}
		b.words[la+mem.Addr(w*mem.WordSize)] = v
	}
}

func smallConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{Name: "L1", Size: 1 << 10, Ways: 2, Latency: 4},   // 8 sets
		L2: Config{Name: "L2", Size: 4 << 10, Ways: 2, Latency: 12},  // 32 sets
		L3: Config{Name: "L3", Size: 16 << 10, Ways: 4, Latency: 28}, // 64 sets
	}
}

func newSmall(b *testBackend, cores int) *Hierarchy {
	return NewHierarchy(cores, smallConfig(), b.fill, b.writeback)
}

func TestLoadMissThenHit(t *testing.T) {
	b := newBackend()
	b.words[0x1000] = 42
	h := newSmall(b, 1)
	v, lat := h.Load(0, 0x1000, 0)
	if v != 42 {
		t.Errorf("load = %d, want 42", v)
	}
	wantMiss := sim.Cycle(4 + 12 + 28 + 100)
	if lat != wantMiss {
		t.Errorf("miss latency = %d, want %d", lat, wantMiss)
	}
	v, lat = h.Load(0, 0x1000, 10)
	if v != 42 || lat != 4 {
		t.Errorf("hit: v=%d lat=%d, want 42/4", v, lat)
	}
	if b.fills != 1 {
		t.Errorf("fills = %d, want 1", b.fills)
	}
}

func TestStoreReturnsOldValue(t *testing.T) {
	b := newBackend()
	b.words[0x2000] = 7
	h := newSmall(b, 1)
	old, _ := h.Store(0, 0x2000, 8, 0)
	if old != 7 {
		t.Errorf("old = %d, want 7", old)
	}
	old, _ = h.Store(0, 0x2000, 9, 1)
	if old != 8 {
		t.Errorf("old after store = %d, want 8", old)
	}
	if v, _ := h.Load(0, 0x2000, 2); v != 9 {
		t.Errorf("load after stores = %d, want 9", v)
	}
}

func TestWordsWithinLineIndependent(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	for w := 0; w < mem.WordsPerLine; w++ {
		h.Store(0, mem.Addr(w*8), mem.Word(w+1), 0)
	}
	for w := 0; w < mem.WordsPerLine; w++ {
		if v, _ := h.Load(0, mem.Addr(w*8), 1); v != mem.Word(w+1) {
			t.Errorf("word %d = %d, want %d", w, v, w+1)
		}
	}
}

func TestDirtyEvictionReachesWriteback(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	h.Store(0, 0, 99, 0)
	// Touch enough distinct lines mapping everywhere to force line 0 out
	// of every level (total capacity 21 KB; touch 64 KB).
	for i := 1; i < 1024; i++ {
		h.Load(0, mem.Addr(i*mem.LineSize), sim.Cycle(i))
	}
	if b.words[0] != 99 {
		t.Fatalf("dirty line never written back: %d writebacks", len(b.writebacks))
	}
	// The line was dropped; a reload must see the written-back value.
	if v, _ := h.Load(0, 0, 99999); v != 99 {
		t.Errorf("reload after eviction = %d, want 99", v)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	for i := 0; i < 1024; i++ {
		h.Load(0, mem.Addr(i*mem.LineSize), sim.Cycle(i))
	}
	if len(b.writebacks) != 0 {
		t.Errorf("clean evictions produced %d writebacks", len(b.writebacks))
	}
}

func TestCleanLine(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	h.Store(0, 0x3000, 5, 0)
	data, dirty := h.CleanLine(0, 0x3000)
	if !dirty {
		t.Fatal("line should have been dirty")
	}
	if data[0] != 5 {
		t.Errorf("CleanLine data[0] = %d, want 5", data[0])
	}
	// Second clean: still cached but no longer dirty.
	if _, dirty := h.CleanLine(0, 0x3000); dirty {
		t.Error("line dirty after CleanLine")
	}
	// Still readable at L1 hit latency.
	if v, lat := h.Load(0, 0x3000, 1); v != 5 || lat != 4 {
		t.Errorf("after clean: v=%d lat=%d", v, lat)
	}
}

func TestDirtyLine(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	if _, dirty := h.DirtyLine(0, 0x4000); dirty {
		t.Error("uncached line reported dirty")
	}
	h.Load(0, 0x4000, 0)
	if _, dirty := h.DirtyLine(0, 0x4000); dirty {
		t.Error("clean line reported dirty")
	}
	h.Store(0, 0x4000, 1, 1)
	if data, dirty := h.DirtyLine(0, 0x4000); !dirty || data[0] != 1 {
		t.Error("dirty line not found")
	}
}

func TestForceWriteBackAll(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 2)
	h.Store(0, 0x100, 1, 0)
	h.Store(1, 0x10000, 2, 0)
	n := h.ForceWriteBackAll(10)
	if n != 2 {
		t.Errorf("force wrote back %d lines, want 2", n)
	}
	if b.words[0x100] != 1 || b.words[0x10000] != 2 {
		t.Error("force write-back lost data")
	}
	// Everything clean now; a second pass writes nothing.
	if n := h.ForceWriteBackAll(20); n != 0 {
		t.Errorf("second force wrote back %d lines", n)
	}
}

func TestInvalidateAll(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	h.Store(0, 0x600, 9, 0)
	h.InvalidateAll()
	if _, dirty := h.DirtyLine(0, 0x600); dirty {
		t.Error("dirty line survived InvalidateAll")
	}
	// Dirty data was volatile: the reload sees the backing store's value.
	if v, _ := h.Load(0, 0x600, 1); v != 0 {
		t.Errorf("lost write visible after invalidate: %d", v)
	}
	if len(b.writebacks) != 0 {
		t.Error("InvalidateAll must not write back (crash semantics)")
	}
}

func TestPerCorePrivacy(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 2)
	h.Store(0, 0x700, 3, 0)
	// The line sits in core 0's L1: core 1's load misses in its own L1
	// and L2 (the simulator runs share-nothing workloads, so no
	// coherence).
	h.Load(1, 0x700, 1)
	if h.L1(1).Misses != 1 || h.L2(1).Misses != 1 {
		t.Errorf("core 1 L1/L2 misses = %d/%d, want 1/1", h.L1(1).Misses, h.L2(1).Misses)
	}
}

func TestHitCounters(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	h.Load(0, 0, 0)
	h.Load(0, 0, 1)
	h.Load(0, 8, 2) // same line
	if h.L1(0).Misses != 1 || h.L1(0).Hits != 2 {
		t.Errorf("L1 hits/misses = %d/%d, want 2/1", h.L1(0).Hits, h.L1(0).Misses)
	}
	if h.L3().Misses != 1 {
		t.Errorf("L3 misses = %d, want 1", h.L3().Misses)
	}
}

func TestL2VictimCaching(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	// Fill one L1 set (2 ways, 8 sets, so stride 8 lines = 512B).
	h.Load(0, 0, 0)
	h.Load(0, 512, 1)
	h.Load(0, 1024, 2) // evicts line 0 from L1 into L2
	fills := b.fills
	_, lat := h.Load(0, 0, 3) // must hit L2, not refill
	if b.fills != fills {
		if lat == 0 {
			t.Error("impossible")
		}
		t.Errorf("L2 victim miss: refilled from memory")
	}
	if lat != 4+12 {
		t.Errorf("L2 hit latency = %d, want 16", lat)
	}
}

// Property-style test: random loads and stores against a shadow map; the
// hierarchy must always return the latest value, and after a full force
// write-back the backing store must agree with the shadow.
func TestHierarchyMatchesShadowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := newBackend()
	h := newSmall(b, 2)
	shadow := [2]map[mem.Addr]mem.Word{
		make(map[mem.Addr]mem.Word), make(map[mem.Addr]mem.Word),
	}
	var now sim.Cycle
	for i := 0; i < 20000; i++ {
		core := rng.Intn(2)
		// Per-core disjoint address spaces (share-nothing).
		addr := mem.Addr(core*1<<20 + rng.Intn(4096)*8)
		now++
		if rng.Intn(2) == 0 {
			v := mem.Word(rng.Int63())
			old, _ := h.Store(core, addr, v, now)
			if want, ok := shadow[core][addr]; ok && old != want {
				t.Fatalf("op %d: store old = %#x, shadow %#x", i, uint64(old), uint64(want))
			}
			shadow[core][addr] = v
		} else {
			v, _ := h.Load(core, addr, now)
			if want := shadow[core][addr]; v != want {
				t.Fatalf("op %d: load = %#x, shadow %#x", i, uint64(v), uint64(want))
			}
		}
	}
	h.ForceWriteBackAll(now)
	for core := range shadow {
		for a, want := range shadow[core] {
			if b.words[a] != want {
				t.Fatalf("backing store %v = %#x, shadow %#x", a, uint64(b.words[a]), uint64(want))
			}
		}
	}
}

func TestNewCacheClampsTinyGeometry(t *testing.T) {
	c := NewCache(Config{Name: "tiny", Size: 32, Ways: 4, Latency: 1})
	if c.sets < 1 {
		t.Error("sets not clamped")
	}
	// Still usable as a 1-set cache inside a hierarchy.
	b := newBackend()
	h := NewHierarchy(1, HierarchyConfig{
		L1: Config{Name: "L1", Size: 64, Ways: 1, Latency: 1},
		L2: Config{Name: "L2", Size: 128, Ways: 1, Latency: 2},
		L3: Config{Name: "L3", Size: 256, Ways: 1, Latency: 3},
	}, b.fill, b.writeback)
	h.Store(0, 0, 1, 0)
	h.Store(0, 64, 2, 1) // evicts through the 1-line levels
	h.Store(0, 128, 3, 2)
	h.Store(0, 192, 4, 3)
	if v, _ := h.Load(0, 0, 4); v != 1 {
		t.Errorf("value lost in tiny hierarchy: %d", v)
	}
}

// allInvalid reports whether every way of a tag array is empty.
func allInvalid(tags []mem.Addr) bool {
	for _, tag := range tags {
		if tag != invalidTag {
			return false
		}
	}
	return true
}

// Sparse reset must be indistinguishable from the full sweep. A cache
// that resets sparsely and a reference that always sweeps every tag run
// the same random inserts and removes, with crashes (reset) in between
// and trips through the pool (Release, then NewCache): their tag arrays
// must agree after every step, every reset must leave all tags invalid,
// and victims, removed refs and lookups must match. Phases alternate
// between light use (the filled list stays short) and heavy use well
// past the fallback fraction.
func TestSparseResetMatchesFullSweep(t *testing.T) {
	cfg := Config{Name: "prop", Size: 64 << 10, Ways: 4, Latency: 1} // 1024 ways, fallback at 128 fills
	rng := rand.New(rand.NewSource(5))
	c, ref := NewCache(cfg), NewCache(cfg)
	defer ref.Release()
	sweep := func() {
		fillInvalid(ref.tags)
		ref.filled = ref.filled[:0]
	}
	resets, fallbacks := 0, 0
	for phase := 0; phase < 60; phase++ {
		fills := 1 + rng.Intn(40)
		if phase%3 == 2 {
			fills = 200 + rng.Intn(2000) // well past the fallback fraction
		}
		span := 1 + rng.Intn(4096) // distinct lines in play this phase
		for op := 0; op < fills; op++ {
			la := mem.Addr(rng.Intn(span) * mem.LineSize)
			if rng.Intn(4) == 0 {
				r1, r2 := c.remove(la), ref.remove(la)
				if r1 != r2 {
					t.Fatalf("phase %d: remove(%v) = ref %d, reference %d", phase, la, r1, r2)
				}
				continue
			}
			r := int32(phase<<16 + op + 1)
			va1, vr1 := c.insert(la, r)
			va2, vr2 := ref.insert(la, r)
			if va1 != va2 || (va1 != invalidTag && vr1 != vr2) {
				t.Fatalf("phase %d: insert(%v) displaced %v ref %d, reference %v ref %d", phase, la, va1, vr1, va2, vr2)
			}
		}
		for i := 0; i < 64; i++ {
			la := mem.Addr(rng.Intn(span) * mem.LineSize)
			w1, w2 := c.find(la), ref.find(la)
			if w1 != w2 || (w1 >= 0 && c.refs[w1] != ref.refs[w2]) {
				t.Fatalf("phase %d: find(%v) diverges from the reference", phase, la)
			}
		}
		if len(c.filled) == cap(c.filled) {
			fallbacks++
		}
		switch rng.Intn(3) {
		case 0: // crash: InvalidateAll's per-level reset
			c.reset()
			sweep()
			resets++
			if !allInvalid(c.tags) {
				t.Fatalf("phase %d: a tag survived reset", phase)
			}
		case 1: // back to the pool and out again
			pooled := c.pooled
			c.Release()
			if !allInvalid(pooled.tags) || len(pooled.filled) != 0 {
				t.Fatalf("phase %d: arrays went back to the pool dirty", phase)
			}
			c = NewCache(cfg)
			sweep()
			resets++
			if !allInvalid(c.tags) {
				t.Fatalf("phase %d: NewCache took dirty arrays from the pool", phase)
			}
		}
		for i := range c.tags {
			if c.tags[i] != ref.tags[i] {
				t.Fatalf("phase %d: way %d tag %v, reference %v", phase, i, c.tags[i], ref.tags[i])
			}
		}
	}
	c.Release()
	if resets < 20 || fallbacks == 0 || fallbacks == 60 {
		t.Fatalf("weak coverage: %d resets, %d of 60 phases past the fallback", resets, fallbacks)
	}
}
