package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"silo/internal/mem"
)

// stampCache is the reference LRU: one int64 last-use stamp per way and
// a tick counter per cache, with the victim the first invalid way by
// index, else the way with the smallest stamp. Like the recency word it
// replaced, it keeps stale stamps across reset and across a pool round
// trip, where the tick restarts at zero.
type stampCache struct {
	sets, ways int
	tags       []mem.Addr
	lru        []int64
	refs       []int32
	tick       int64
}

func newStampCache(sets, ways int) *stampCache {
	m := &stampCache{sets: sets, ways: ways, tags: make([]mem.Addr, sets*ways),
		lru: make([]int64, sets*ways), refs: make([]int32, sets*ways)}
	fillInvalid(m.tags)
	return m
}

func (m *stampCache) base(la mem.Addr) int {
	return int(uint64(la>>mem.LineShift)%uint64(m.sets)) * m.ways
}

func (m *stampCache) find(la mem.Addr) int {
	base := m.base(la)
	for i := 0; i < m.ways; i++ {
		if m.tags[base+i] == la {
			return base + i
		}
	}
	return -1
}

func (m *stampCache) hit(la mem.Addr) int {
	w := m.find(la)
	if w >= 0 {
		m.tick++
		m.lru[w] = m.tick
	}
	return w
}

func (m *stampCache) insert(la mem.Addr, ref int32) (mem.Addr, int32) {
	base := m.base(la)
	vi := 0
	for i := 0; i < m.ways; i++ {
		if m.tags[base+i] == invalidTag {
			vi = i
			break
		}
		if m.lru[base+i] < m.lru[base+vi] {
			vi = i
		}
	}
	w := base + vi
	va, vr := m.tags[w], m.refs[w]
	m.tick++
	m.lru[w] = m.tick
	m.tags[w], m.refs[w] = la, ref
	return va, vr
}

func (m *stampCache) remove(la mem.Addr) int32 {
	w := m.find(la)
	if w < 0 {
		return 0
	}
	m.tags[w] = invalidTag
	return m.refs[w]
}

// The recency word must choose exactly the ways and victims the stamp LRU
// chose. A Cache and a stampCache run the same seeded mix of accesses
// (a hit, else an insert as on a miss), removes, resets — sparse, and
// full sweeps once the filled list overflows — and Release → NewCache
// pool round trips, on every tested geometry; the hit way, the victim
// address and the victim ref must agree at every step.
func TestRecencyWordMatchesStampLRU(t *testing.T) {
	var sparse, sweeps int
	for _, ways := range []int{1, 2, 3, 4, 8, 16} {
		for _, sets := range []int{1, 3, 64} {
			t.Run(fmt.Sprintf("%dway-%dset", ways, sets), func(t *testing.T) {
				sp, sw := checkRecencyWord(t, sets, ways, int64(ways*100+sets))
				sparse, sweeps = sparse+sp, sweeps+sw
			})
		}
	}
	if sparse == 0 || sweeps == 0 {
		t.Fatalf("weak coverage: %d sparse resets, %d full sweeps", sparse, sweeps)
	}
}

// checkRecencyWord runs one geometry and returns how many of its resets
// were sparse and how many swept the whole tag array.
func checkRecencyWord(t *testing.T, sets, ways int, seed int64) (sparse, sweeps int) {
	cfg := Config{Name: "prop", Size: sets * ways * mem.LineSize, Ways: ways, Latency: 1}
	rng := rand.New(rand.NewSource(seed))
	c, m := NewCache(cfg), newStampCache(sets, ways)
	next, trips := int32(0), 0
	for phase := 0; phase < 40; phase++ {
		// Up to four lines per way in play: sets fill, then churn.
		span := 1 + rng.Intn(4*sets*ways)
		ops := 1 + rng.Intn(20*sets*ways)
		for op := 0; op < ops; op++ {
			la := mem.Addr(rng.Intn(span) * mem.LineSize)
			if rng.Intn(8) == 0 {
				if r1, r2 := c.remove(la), m.remove(la); r1 != r2 {
					t.Fatalf("phase %d op %d: remove(%v) = ref %d, stamp LRU %d", phase, op, la, r1, r2)
				}
				continue
			}
			w1, w2 := c.hit(la), m.hit(la)
			if w1 != w2 {
				t.Fatalf("phase %d op %d: hit(%v) = way %d, stamp LRU way %d", phase, op, la, w1, w2)
			}
			if w1 >= 0 {
				continue
			}
			next++
			va1, vr1 := c.insert(la, next)
			va2, vr2 := m.insert(la, next)
			if va1 != va2 || (va1 != invalidTag && vr1 != vr2) {
				t.Fatalf("phase %d op %d: insert(%v) displaced %v ref %d, stamp LRU %v ref %d", phase, op, la, va1, vr1, va2, vr2)
			}
		}
		switch rng.Intn(3) {
		case 0: // crash: the level's reset
			if len(c.filled) == cap(c.filled) {
				sweeps++
			} else {
				sparse++
			}
			c.reset()
			fillInvalid(m.tags)
		case 1: // back to the pool and out again
			c.Release()
			c = NewCache(cfg)
			fillInvalid(m.tags)
			m.tick = 0
			trips++
		}
	}
	c.Release()
	if sparse+sweeps == 0 || trips == 0 {
		t.Fatalf("weak coverage: %d resets, %d pool round trips", sparse+sweeps, trips)
	}
	return sparse, sweeps
}

// A set's recency word holds 16 way indices, so a 17-way level is
// refused by name, with the limit in the message.
func TestNewCacheRejectsTooManyWays(t *testing.T) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "L3") || !strings.Contains(msg, "17 ways") || !strings.Contains(msg, "at most 16") {
			t.Fatalf("NewCache with 17 ways: recovered %v, want a panic naming the level and the 16-way limit", r)
		}
	}()
	NewCache(Config{Name: "L3", Size: 17 * mem.LineSize * 4, Ways: 17, Latency: 1})
}
