package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

// conservation checks that the arena accounts for every record, across
// all levels and cores: each valid way holds a distinct ref in 1..bound,
// no valid way's ref is on the free list, and the live refs, the free
// refs and the paged refs never issued add up to the paged records, so
// no record leaks and none is shared. It returns nil when all hold.
func conservation(h *Hierarchy) error {
	paged := int32(len(h.pages) * linePageSize)
	if h.bound > paged {
		return fmt.Errorf("%d records issued but only %d paged", h.bound, paged)
	}
	seen := make([]bool, paged+1)
	live := int32(0)
	check := func(c *Cache) error {
		for w, tag := range c.tags {
			if tag == invalidTag {
				continue
			}
			r := c.refs[w]
			if r < 1 || r > h.bound || seen[r] {
				return fmt.Errorf("%s way %d: ref %d out of 1..%d or shared", c.cfg.Name, w, r, h.bound)
			}
			seen[r] = true
			live++
		}
		return nil
	}
	for i := range h.l1 {
		if err := check(h.l1[i]); err != nil {
			return err
		}
		if err := check(h.l2[i]); err != nil {
			return err
		}
	}
	if err := check(h.l3); err != nil {
		return err
	}
	free := int32(0)
	for r := h.free; r != 0; r = nextFree(h, r) {
		if r < 1 || r > h.bound || seen[r] {
			return fmt.Errorf("free ref %d out of 1..%d, held by a valid way, or listed twice", r, h.bound)
		}
		seen[r] = true
		free++
	}
	if never := paged - h.bound; live+free+never != paged {
		return fmt.Errorf("%d live + %d free + %d never issued != %d paged records", live, free, never, paged)
	}
	return nil
}

// nextFree returns the ref the free record r links to.
func nextFree(h *Hierarchy, r int32) int32 {
	return int32(binary.LittleEndian.Uint32(h.rec(r).data[:4]))
}

// freeCount returns the length of h's free list.
func freeCount(h *Hierarchy) int {
	n := 0
	for r := h.free; r != 0; r = nextFree(h, r) {
		n++
	}
	return n
}

// checkConservation fails t if conservation does not hold.
func checkConservation(t *testing.T, where string, h *Hierarchy) {
	t.Helper()
	if err := conservation(h); err != nil {
		t.Fatalf("%s: %v", where, err)
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

// A line's record moves with it between levels, returns to the arena's
// free list when the line leaves the LLC, and is reissued, stale
// contents and all; validity is the tag arrays' alone. Random loads,
// stores, CleanLine, DirtyLine, ForceWriteBackAll and InvalidateAll on a
// geometry whose sets fill up must agree with the reference model on
// every value, every dirty bit and every write-back — a reissued record
// not rewritten in full, or one read while its tag is invalid, would
// surface a stale line — and record conservation must hold after every
// phase, including across InvalidateAll and Release → NewHierarchy.
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
		checkConservation(t, fmt.Sprintf("phase %d end", phase), h)
		switch phase % 3 {
		case 0: // crash: the dirty lines are lost, every record is free
			h.InvalidateAll()
			m.crash()
			if h.bound != 0 {
				t.Fatalf("phase %d: %d records still issued after a crash", phase, h.bound)
			}
			checkConservation(t, fmt.Sprintf("phase %d after crash", phase), h)
		case 1: // back to the pool and out again; Release drops like a crash
			pooled, arrays, pages := h.pooled, h.l3.pooled, len(h.pages)
			h.Release()
			m.crash()
			h = build()
			if h.pooled == pooled && h.l3.pooled == arrays {
				roundTrips++
				if len(h.pages) != pages || h.bound != 0 {
					t.Fatalf("phase %d: arena came back from the pool with %d pages and %d records issued, had %d pages", phase, len(h.pages), h.bound, pages)
				}
			}
			checkConservation(t, fmt.Sprintf("phase %d after pool round trip", phase), h)
		}
	}
	h.Release()
	// The collector may reclaim parts that sat idle across a GC, so only
	// insist that some round trip returned the same arena and L3 arrays.
	if roundTrips == 0 {
		t.Fatal("no pool round trip returned the released arena and L3 arrays")
	}
}

// quietBackend is a fill/write-back pair that allocates nothing.
type quietBackend struct{ writebacks int }

func (q *quietBackend) fill(la mem.Addr, now sim.Cycle, dst *[mem.LineSize]byte) sim.Cycle {
	*dst = [mem.LineSize]byte{byte(la >> mem.LineShift)}
	return 100
}

func (q *quietBackend) writeback(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	q.writebacks++
}

// Once the arena is warmed — it has issued a record for every way plus
// the one a miss holds in flight — moving lines between levels, crashes
// and force write-backs allocate nothing: records move by ref, a freed
// one is linked into the free list through its own dead data and
// reissued, and a crash takes them all back without freeing pages.
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
	ways := len(h.l1[0].tags) + len(h.l2[0].tags) + len(h.l3.tags)
	if int(h.bound) != ways+1 || freeCount(h) != 1 {
		t.Fatalf("%d records issued (%d free) after warm-up, want %d (1 free)", h.bound, freeCount(h), ways+1)
	}
	checkConservation(t, "after warm-up", h)
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
		t.Fatalf("accesses on a warmed hierarchy allocate %v times per round, want 0", allocs)
	}
	if q.writebacks == 0 {
		t.Fatal("no dirty line left the hierarchy: the rounds did not move lines")
	}
}

// emptyPools drops every pooled cacheArrays and arena, so the next
// NewCache of any geometry seen so far takes never-filled arrays and the
// next NewHierarchy an empty arena.
func emptyPools() {
	arrPools.Range(func(_, p any) bool {
		for p.(*arrPool).free.Get() != nil {
		}
		return true
	})
	for arenaPool.Get() != nil {
	}
}

// A fresh default 8-core hierarchy allocates no per-way state: each
// level builds its arrays on its first fill, and the arena issues one
// record per resident line after that. Eager line records cost 16.25 MB
// here; eager per-way arrays and recency words alone would cost 2.1 MB.
// The first hierarchy of a geometry in a process also builds the shared
// all-invalid tag arrays (1 MB for the L3) and all-zero recency arrays
// (64 KB for the L3), once.
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
		if got := tc.c.refs != nil; got != tc.want {
			t.Fatalf("%s arrays built = %v after one load on core 0, want %v", tc.c.cfg.Name, got, tc.want)
		}
	}
	if h.bound != 1 || h.free != 0 || len(h.pages) != 1 {
		t.Fatalf("one load issued %d records (%d free, %d pages), want 1 record on 1 page", h.bound, freeCount(h), len(h.pages))
	}
	checkConservation(t, "after one load", h)
}

// Hierarchies built on different goroutines share the arena pool. Two
// goroutines each build, run, crash and release hierarchies in a loop:
// every load must read back the goroutine's own last store, and record
// conservation must hold at each step, so no arena is handed out twice
// or returned while in use. Run under -race, this also checks the pool's
// hand-off between goroutines.
func TestArenaPoolSharedAcrossGoroutines(t *testing.T) {
	const goroutines, rounds = 2, 20
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = churnHierarchies(int64(g), rounds)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// churnHierarchies builds, runs, crashes and releases rounds hierarchies
// in turn, checking every load against a shadow and conservation at every
// step, and returns the first failure.
func churnHierarchies(seed int64, rounds int) error {
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		b := newBackend()
		h := newSmall(b, 2)
		shadow := make(map[mem.Addr]mem.Word)
		var now sim.Cycle
		for phase := 0; phase < 2; phase++ {
			for op := 0; op < 1500; op++ {
				now++
				core := rng.Intn(2)
				addr := mem.Addr(core<<20 + rng.Intn(2048)*mem.WordSize)
				if rng.Intn(2) == 0 {
					v := mem.Word(rng.Int63())
					h.Store(core, addr, v, now)
					shadow[addr] = v
				} else if v, _ := h.Load(core, addr, now); v != shadow[addr] {
					return fmt.Errorf("round %d: load %v = %#x, want %#x", round, addr, uint64(v), uint64(shadow[addr]))
				}
			}
			if err := conservation(h); err != nil {
				return fmt.Errorf("round %d phase %d: %v", round, phase, err)
			}
			if phase == 0 { // crash: the stores since the last write-back are lost
				h.InvalidateAll()
				clear(shadow)
				for a, v := range b.words {
					shadow[a] = v
				}
				if err := conservation(h); err != nil {
					return fmt.Errorf("round %d after crash: %v", round, err)
				}
			}
		}
		h.Release()
	}
	return nil
}
