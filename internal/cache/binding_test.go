package cache

import (
	"math/rand"
	"runtime"
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

// checkBinding asserts the record-binding invariants of one cache: every
// bound ref is unique and in 1..bound, exactly bound ways hold a record
// (a way is bound once, on its first fill, and never rebound), and every
// valid way has one.
func checkBinding(t *testing.T, where string, c *Cache) {
	t.Helper()
	seen := make([]bool, c.bound+1)
	n := int32(0)
	for w, r := range c.refs {
		if r == 0 {
			if c.tags[w] != invalidTag {
				t.Fatalf("%s %s: valid way %d has no record", where, c.cfg.Name, w)
			}
			continue
		}
		if r > c.bound || seen[r] {
			t.Fatalf("%s %s: way %d ref %d out of range or shared (bound %d)", where, c.cfg.Name, w, r, c.bound)
		}
		seen[r] = true
		n++
	}
	if n != c.bound {
		t.Fatalf("%s %s: %d records bound but %d ways hold one", where, c.cfg.Name, c.bound, n)
	}
}

// lineModel is the reference model of a share-nothing hierarchy's
// contents: each word's current value is its last store since the last
// crash, else the backing store's, and a line is dirty from a store until
// it is written back, cleaned, or dropped by a crash.
type lineModel struct {
	b     *testBackend
	cur   map[mem.Addr]mem.Word
	dirty map[mem.Addr]bool // by line address
}

func (m *lineModel) val(addr mem.Addr) mem.Word {
	if v, ok := m.cur[addr]; ok {
		return v
	}
	return m.b.words[addr]
}

// matches reports whether data holds the model's current words of la.
func (m *lineModel) matches(la mem.Addr, data *[mem.LineSize]byte) bool {
	for w := 0; w < mem.WordsPerLine; w++ {
		a := la + mem.Addr(w*mem.WordSize)
		if wordAt(data, a) != m.val(a) {
			return false
		}
	}
	return true
}

func (m *lineModel) clean(la mem.Addr) {
	delete(m.dirty, la)
	for w := 0; w < mem.WordsPerLine; w++ {
		delete(m.cur, la+mem.Addr(w*mem.WordSize))
	}
}

func (m *lineModel) crash() {
	clear(m.cur)
	clear(m.dirty)
}

// Caches bind a record to a way on its first fill and keep it through
// eviction, removal, crashes and trips through the pool; validity is the
// tag array's alone. Random loads, stores, CleanLine, DirtyLine,
// ForceWriteBackAll and InvalidateAll on a geometry whose sets fill up
// must agree with the reference model on every value, every dirty bit
// and every write-back — a record read while its tag is invalid would
// surface a stale dirty line — and the binding invariants must hold
// after every phase, including across Release → NewCache round trips.
func TestRecordBindingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	b := newBackend()
	m := &lineModel{b: b, cur: make(map[mem.Addr]mem.Word), dirty: make(map[mem.Addr]bool)}
	var wbErr string
	wb := func(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
		if wbErr == "" && !m.dirty[la] {
			wbErr = "write-back of a line the model holds clean"
		}
		if wbErr == "" && !m.matches(la, &data) {
			wbErr = "write-back data differs from the model"
		}
		m.clean(la)
		b.writeback(now, la, data)
	}
	const cores = 2
	build := func() *Hierarchy { return NewHierarchy(cores, smallConfig(), b.fill, wb) }
	h := build()
	var now sim.Cycle
	roundTrips := 0
	for phase := 0; phase < 40; phase++ {
		span := 64 + rng.Intn(1024) // distinct lines per core this phase
		for op := 0; op < 3000; op++ {
			now++
			core := rng.Intn(cores)
			addr := mem.Addr(core<<24 + rng.Intn(span*mem.WordsPerLine)*mem.WordSize)
			la := addr.Line()
			switch r := rng.Intn(100); {
			case r < 45:
				if v, _ := h.Load(core, addr, now); v != m.val(addr) {
					t.Fatalf("phase %d op %d: load %v = %#x, model %#x", phase, op, addr, uint64(v), uint64(m.val(addr)))
				}
			case r < 90:
				v := mem.Word(rng.Int63())
				if old, _ := h.Store(core, addr, v, now); old != m.val(addr) {
					t.Fatalf("phase %d op %d: store %v old = %#x, model %#x", phase, op, addr, uint64(old), uint64(m.val(addr)))
				}
				m.cur[addr] = v
				m.dirty[la] = true
			case r < 95:
				data, ok := h.CleanLine(core, la)
				if ok != m.dirty[la] || (ok && !m.matches(la, &data)) {
					t.Fatalf("phase %d op %d: CleanLine(%v) = %v, model dirty %v", phase, op, la, ok, m.dirty[la])
				}
				if ok {
					b.writeback(now, la, data) // the caller persists a cleaned line
					m.clean(la)
				}
			case r < 99:
				data, ok := h.DirtyLine(core, la)
				if ok != m.dirty[la] || (ok && !m.matches(la, &data)) {
					t.Fatalf("phase %d op %d: DirtyLine(%v) = %v, model dirty %v", phase, op, la, ok, m.dirty[la])
				}
			default:
				want := len(m.dirty)
				if n := h.ForceWriteBackAll(now); n != want || len(m.dirty) != 0 {
					t.Fatalf("phase %d op %d: ForceWriteBackAll wrote %d lines, model had %d dirty (%d left)", phase, op, n, want, len(m.dirty))
				}
			}
			if wbErr != "" {
				t.Fatalf("phase %d op %d: %s", phase, op, wbErr)
			}
		}
		for i := range h.l1 {
			checkBinding(t, "phase end", h.l1[i])
			checkBinding(t, "phase end", h.l2[i])
		}
		checkBinding(t, "phase end", h.l3)
		switch phase % 3 {
		case 0: // crash: the dirty lines are lost, records stay bound
			h.InvalidateAll()
			m.crash()
			for i := range h.l1 {
				checkBinding(t, "after crash", h.l1[i])
			}
			checkBinding(t, "after crash", h.l3)
		case 1: // back to the pool and out again; Release drops like a crash
			pooled, bound := h.l3.pooled, h.l3.bound
			h.Release()
			m.crash()
			h = build()
			if h.l3.pooled == pooled {
				roundTrips++
				if h.l3.bound != bound {
					t.Fatalf("phase %d: L3 came back from the pool with %d records bound, had %d", phase, h.l3.bound, bound)
				}
			}
			checkBinding(t, "after pool round trip", h.l3)
		}
	}
	h.Release()
	// The collector may reclaim arrays that sat idle across a GC, so only
	// insist that some round trip returned the same arrays.
	if roundTrips == 0 {
		t.Fatal("no pool round trip returned the released L3 arrays")
	}
}

// quietBackend is a fill/write-back pair that allocates nothing.
type quietBackend struct{ writebacks int }

func (q *quietBackend) fill(la mem.Addr, now sim.Cycle) ([mem.LineSize]byte, sim.Cycle) {
	var d [mem.LineSize]byte
	d[0] = byte(la >> mem.LineShift)
	return d, 100
}

func (q *quietBackend) writeback(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	q.writebacks++
}

// Once every way of every level holds a record, moving lines between
// levels, crashes and force write-backs allocate nothing: a way keeps its
// record through eviction, removal and reset.
func TestBoundHierarchyZeroAlloc(t *testing.T) {
	q := &quietBackend{}
	h := NewHierarchy(1, smallConfig(), q.fill, q.writeback)
	defer h.Release()
	// L1+L2+L3 hold 336 lines; cycling 2048 lines fills every way.
	var now sim.Cycle
	for i := 0; i < 2048; i++ {
		now++
		h.Store(0, mem.Addr(i*mem.LineSize), mem.Word(i), now)
	}
	for _, c := range []*Cache{h.l1[0], h.l2[0], h.l3} {
		if int(c.bound) != len(c.tags) {
			t.Fatalf("%s: %d of %d ways bound after warm-up", c.cfg.Name, c.bound, len(c.tags))
		}
	}
	rng := rand.New(rand.NewSource(3))
	round := func() {
		for i := 0; i < 256; i++ {
			now++
			addr := mem.Addr(rng.Intn(4096) * mem.WordSize * 4)
			if i&1 == 0 {
				h.Store(0, addr, mem.Word(i), now)
			} else {
				h.Load(0, addr, now)
			}
		}
		h.ForceWriteBackAll(now)
		h.InvalidateAll()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("accesses on a fully bound hierarchy allocate %v times per round, want 0", allocs)
	}
	if q.writebacks == 0 {
		t.Fatal("no dirty line left the hierarchy: the rounds did not move lines")
	}
}

// emptyPools drops every pooled cacheArrays, so the next NewCache of
// any geometry seen so far takes never-filled arrays.
func emptyPools() {
	arrPools.Range(func(_, p any) bool {
		for p.(*arrPool).free.Get() != nil {
		}
		return true
	})
}

// A fresh default 8-core hierarchy allocates no per-way state: each
// level builds its arrays on its first fill, and binds records way by
// way after that. Eager line records cost 16.25 MB here; eager per-way
// arrays alone would cost 3.4 MB. The first hierarchy of a geometry in a
// process also builds the shared all-invalid tag arrays (1 MB for the
// L3), once.
func TestFreshHierarchyAllocatesNoWayState(t *testing.T) {
	q := &quietBackend{}
	build := func() (*Hierarchy, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h := NewHierarchy(8, DefaultHierarchyConfig(), q.fill, q.writeback)
		runtime.ReadMemStats(&after)
		return h, after.TotalAlloc - before.TotalAlloc
	}
	arrPools.Range(func(n, _ any) bool {
		arrPools.Delete(n)
		return true
	})
	h, first := build() // as in a new process
	h.Release()
	emptyPools()
	h, again := build()
	defer h.Release()
	if first > 4<<20 || again > 64<<10 {
		t.Fatalf("fresh 8-core hierarchy allocated %d KB first and %d KB from an empty pool, want at most 4096 and 64", first>>10, again>>10)
	}
	h.Load(0, 0x1000, 1)
	for _, tc := range []struct {
		c    *Cache
		want bool
	}{{h.l1[0], true}, {h.l1[1], false}, {h.l2[0], false}, {h.l3, false}} {
		if got := tc.c.lru != nil; got != tc.want {
			t.Fatalf("%s arrays built = %v after one load on core 0, want %v", tc.c.cfg.Name, got, tc.want)
		}
	}
	if h.l1[0].bound != 1 {
		t.Fatalf("L1 holds %d records after one fill, want 1", h.l1[0].bound)
	}
}
