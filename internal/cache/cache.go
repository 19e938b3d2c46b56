// Package cache implements the simulated CPU cache hierarchy: private
// set-associative L1D and L2 caches per core and a shared L3, all
// write-back/write-allocate with LRU replacement, holding real data bytes.
//
// Holding real bytes matters for this reproduction: the caches are the
// *volatile* domain that a crash erases, dirty-line evictions race with
// Silo's in-place updates (the flush-bit logic of §III-D), and the log
// generator captures the old word straight from L1D on every store.
package cache

import (
	"encoding/binary"
	"sync"

	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// Config sizes one cache level.
type Config struct {
	Name    string
	Size    int // bytes
	Ways    int
	Latency sim.Cycle
}

// HierarchyConfig sizes all three levels; defaults follow Table II.
type HierarchyConfig struct {
	L1, L2, L3 Config
}

// DefaultHierarchyConfig returns Table II's hierarchy: 32 KB 8-way L1D
// (4 cycles), 256 KB 8-way L2 (12 cycles), 8 MB 16-way shared L3 (28
// cycles), all with 64 B lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{Name: "L1D", Size: 32 << 10, Ways: 8, Latency: 4},
		L2: Config{Name: "L2", Size: 256 << 10, Ways: 8, Latency: 12},
		L3: Config{Name: "L3", Size: 8 << 20, Ways: 16, Latency: 28},
	}
}

type line struct {
	addr  mem.Addr // line-aligned tag
	lru   int64
	data  [mem.LineSize]byte // held inline: no per-fill allocation
	dirty bool
}

// invalidTag marks an empty way in the tag array. It is not line-aligned,
// so no real line address can collide with it.
const invalidTag = ^mem.Addr(0)

// Cache is one set-associative level. Tags live in their own dense array
// (mirroring arr) so the per-access way scan reads one contiguous run of
// words instead of striding across the full line records. The tag array
// is also the sole validity record — a line record is only read when its
// tag matches — so whole-cache invalidation touches 8 bytes per line, not
// the 88-byte record.
//
// Invalidation is sparse: insert notes every way it moves from invalid
// to valid, and reset clears only those ways. A torture-fleet campaign
// fills a few hundred of the L3's 128 k ways, so its crash and its
// release to the pool cost what it touched, not the cache's geometry.
type Cache struct {
	cfg     Config
	sets    int
	setMask int // sets-1 when sets is a power of two (the usual case), else -1
	ways    int
	arr     []line     // sets*ways, row-major by set; stale unless tag valid
	tags    []mem.Addr // arr[i].addr, or invalidTag for an empty way
	filled  []int32    // ways filled since the last reset; len == cap means sweep
	pooled  *cacheArrays
	tick    int64

	Hits, Misses int64
}

// sparseResetDiv sets the sparse-reset fallback: the filled-way list
// holds at most len(tags)/sparseResetDiv entries, and once it is full
// reset sweeps the whole tag array instead (a memmove-speed fill beats
// scattered stores by then).
const sparseResetDiv = 8

// cacheArrays bundles one level's line records, tag array and filled-way
// list so they recycle together. Because validity lives solely in the
// tag array, recycled records may carry stale contents — they are
// unreachable until an insert overwrites them. A pooled cacheArrays is
// clean when returned, not when taken: Release resets the tags (and
// empties the list) before the put, so NewCache takes it as is.
type cacheArrays struct {
	arr    []line
	tags   []mem.Addr
	filled []int32
}

// arrPools recycles cacheArrays by line count. Short-lived machines (the
// torture fleet builds thousands per sweep) otherwise spend more time
// zeroing fresh multi-megabyte L3 record arrays than simulating.
var arrPools sync.Map // line count -> *sync.Pool

func getArrays(n int) *cacheArrays {
	p, ok := arrPools.Load(n)
	if !ok {
		p, _ = arrPools.LoadOrStore(n, &sync.Pool{New: func() any {
			a := &cacheArrays{arr: make([]line, n), tags: make([]mem.Addr, n),
				filled: make([]int32, 0, n/sparseResetDiv)}
			fillInvalid(a.tags)
			return a
		}})
	}
	return p.(*sync.Pool).Get().(*cacheArrays)
}

// fillInvalid resets a tag array to all-empty. The doubling copy runs at
// memmove speed, which matters at the L3's 128 k tags.
func fillInvalid(tags []mem.Addr) {
	if len(tags) == 0 {
		return
	}
	tags[0] = invalidTag
	for n := 1; n < len(tags); n *= 2 {
		copy(tags[n:], tags[:n])
	}
}

// NewCache builds a cache from cfg.
func NewCache(cfg Config) *Cache {
	sets := cfg.Size / (mem.LineSize * cfg.Ways)
	if sets < 1 {
		sets = 1
	}
	mask := -1
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	a := getArrays(sets * cfg.Ways)
	return &Cache{cfg: cfg, sets: sets, setMask: mask, ways: cfg.Ways,
		arr: a.arr, tags: a.tags, filled: a.filled, pooled: a}
}

// Release resets the cache and returns its arrays to the pool, so pooled
// arrays are always clean. The cache must not be used afterwards.
func (c *Cache) Release() {
	if c.pooled == nil {
		return
	}
	c.reset()
	c.pooled.filled = c.filled
	if p, ok := arrPools.Load(len(c.pooled.arr)); ok {
		p.(*sync.Pool).Put(c.pooled)
	}
	c.pooled, c.arr, c.tags, c.filled = nil, nil, nil, nil
}

// reset invalidates every way: only the ways noted as filled, or the
// whole tag array once the note list overflowed.
func (c *Cache) reset() {
	if len(c.filled) == cap(c.filled) {
		fillInvalid(c.tags)
	} else {
		for _, i := range c.filled {
			c.tags[i] = invalidTag
		}
	}
	c.filled = c.filled[:0]
}

func (c *Cache) setBase(addr mem.Addr) int {
	idx := uint64(addr >> mem.LineShift)
	if c.setMask >= 0 {
		return (int(idx) & c.setMask) * c.ways
	}
	return int(idx%uint64(c.sets)) * c.ways
}

// lookup returns the way holding addr's line, or nil.
func (c *Cache) lookup(addr mem.Addr) *line {
	la := addr.Line()
	base := c.setBase(la)
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i] == la {
			return &c.arr[base+i]
		}
	}
	return nil
}

// Evicted describes a line pushed out of a cache level.
type Evicted struct {
	Addr  mem.Addr
	Data  [mem.LineSize]byte
	Dirty bool
}

// insert places data for la, returning the resident line and the victim
// if a valid line was displaced.
func (c *Cache) insert(la mem.Addr, data *[mem.LineSize]byte, dirty bool) (*line, Evicted, bool) {
	base := c.setBase(la)
	set := c.arr[base : base+c.ways]
	tags := c.tags[base : base+c.ways]
	vi := 0
	for i := range tags {
		if tags[i] == invalidTag {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim := &set[vi]
	var ev Evicted
	had := tags[vi] != invalidTag
	if had {
		ev = Evicted{Addr: victim.addr, Data: victim.data, Dirty: victim.dirty}
	} else if len(c.filled) < cap(c.filled) {
		c.filled = append(c.filled, int32(base+vi))
	}
	c.tick++
	victim.addr, victim.lru, victim.data, victim.dirty = la, c.tick, *data, dirty
	tags[vi] = la
	return victim, ev, had
}

// remove invalidates la, returning its contents.
func (c *Cache) remove(la mem.Addr) (Evicted, bool) {
	base := c.setBase(la)
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i] == la {
			l := &c.arr[base+i]
			ev := Evicted{Addr: l.addr, Data: l.data, Dirty: l.dirty}
			tags[i] = invalidTag // record left stale; never read while invalid
			return ev, true
		}
	}
	return Evicted{}, false
}

// FillFn reads a line's bytes from memory at time now, returning data and
// latency (which may include interference from queued writes).
type FillFn func(la mem.Addr, now sim.Cycle) ([mem.LineSize]byte, sim.Cycle)

// WritebackFn delivers a dirty line evicted from the LLC to the memory
// controller at time now.
type WritebackFn func(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte)

// Hierarchy is the full 3-level cache system for all cores.
type Hierarchy struct {
	cfg       HierarchyConfig
	l1, l2    []*Cache
	l3        *Cache
	fill      FillFn
	writeback WritebackFn
	tel       *telemetry.Recorder

	Writebacks int64 // dirty LLC evictions
}

// SetTelemetry attaches the probe-event recorder (nil disables probes).
func (h *Hierarchy) SetTelemetry(r *telemetry.Recorder) { h.tel = r }

// NewHierarchy builds per-core L1/L2 and a shared L3.
func NewHierarchy(cores int, cfg HierarchyConfig, fill FillFn, writeback WritebackFn) *Hierarchy {
	h := &Hierarchy{cfg: cfg, l3: NewCache(cfg.L3), fill: fill, writeback: writeback}
	for i := 0; i < cores; i++ {
		h.l1 = append(h.l1, NewCache(cfg.L1))
		h.l2 = append(h.l2, NewCache(cfg.L2))
	}
	return h
}

// L1 returns core i's L1D (stats access).
func (h *Hierarchy) L1(i int) *Cache { return h.l1[i] }

// L2 returns core i's L2.
func (h *Hierarchy) L2(i int) *Cache { return h.l2[i] }

// L3 returns the shared LLC.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// access brings addr's line into core's L1 and returns a pointer to the
// resident line plus the access latency.
func (h *Hierarchy) access(core int, addr mem.Addr, now sim.Cycle) (*line, sim.Cycle) {
	l1, l2 := h.l1[core], h.l2[core]
	if l := l1.lookup(addr); l != nil {
		l1.Hits++
		l1.tick++
		l.lru = l1.tick
		return l, h.cfg.L1.Latency
	}
	l1.Misses++
	la := addr.Line()

	var data [mem.LineSize]byte
	var dirty bool
	lat := h.cfg.L1.Latency + h.cfg.L2.Latency
	if l := l2.lookup(la); l != nil {
		l2.Hits++
		data, dirty = l.data, l.dirty
		l2.remove(la) // promote exclusively into L1
	} else {
		l2.Misses++
		lat += h.cfg.L3.Latency
		if l := h.l3.lookup(la); l != nil {
			h.l3.Hits++
			data, dirty = l.data, l.dirty
			h.l3.remove(la)
		} else {
			h.l3.Misses++
			var fillLat sim.Cycle
			data, fillLat = h.fill(la, now)
			lat += fillLat
		}
	}
	res, ev, had := l1.insert(la, &data, dirty)
	if had {
		h.demote(1, core, ev, now)
		// A same-set demotion chain cannot displace la from L1: the only
		// L1 write after insert is the demote's recursion into L2/L3.
	}
	return res, lat
}

// demote pushes an evicted line down one level (L1→L2→L3→MC). Clean lines
// are demoted too (victim caching); dirty LLC victims leave the hierarchy
// through the writeback callback.
func (h *Hierarchy) demote(fromLevel int, core int, ev Evicted, now sim.Cycle) {
	switch fromLevel {
	case 1:
		_, ev2, had := h.l2[core].insert(ev.Addr, &ev.Data, ev.Dirty)
		if had {
			h.demote(2, core, ev2, now)
		}
	case 2:
		_, ev3, had := h.l3.insert(ev.Addr, &ev.Data, ev.Dirty)
		if had {
			h.demote(3, core, ev3, now)
		}
	case 3:
		if ev.Dirty {
			h.Writebacks++
			h.tel.LLCEvict(now, ev.Addr)
			h.writeback(now, ev.Addr, ev.Data)
		}
	}
}

// Load reads the word at addr through core's caches.
func (h *Hierarchy) Load(core int, addr mem.Addr, now sim.Cycle) (mem.Word, sim.Cycle) {
	l, lat := h.access(core, addr, now)
	return wordAt(&l.data, addr), lat
}

// Store writes the word at addr through core's caches (write-allocate)
// and returns the word's previous value — the log generator's "old data",
// read during tag matching at no extra latency (§III-B).
func (h *Hierarchy) Store(core int, addr mem.Addr, v mem.Word, now sim.Cycle) (old mem.Word, lat sim.Cycle) {
	l, lat := h.access(core, addr, now)
	old = wordAt(&l.data, addr)
	putWordAt(&l.data, addr, v)
	l.dirty = true
	return old, lat
}

// PeekWord returns addr's word if cached anywhere for core, with no side
// effects (no LRU update, no timing).
func (h *Hierarchy) PeekWord(core int, addr mem.Addr) (mem.Word, bool) {
	for lvl := 0; lvl < 3; lvl++ {
		if l := h.level(lvl, core).lookup(addr); l != nil {
			return wordAt(&l.data, addr), true
		}
	}
	return 0, false
}

// level returns core's cache at L1/L2/L3 (0/1/2) — the iteration order of
// the whole-hierarchy probes, without building a slice per call.
func (h *Hierarchy) level(lvl, core int) *Cache {
	switch lvl {
	case 0:
		return h.l1[core]
	case 1:
		return h.l2[core]
	default:
		return h.l3
	}
}

// CleanLine implements clwb semantics for one line: if the line is dirty
// in any level reachable by core, its current contents are returned and
// every cached copy is marked clean (the caller writes it to PM). The
// line stays cached.
func (h *Hierarchy) CleanLine(core int, la mem.Addr) ([mem.LineSize]byte, bool) {
	la = la.Line()
	var data [mem.LineSize]byte
	found, wasDirty := false, false
	for lvl := 0; lvl < 3; lvl++ {
		if l := h.level(lvl, core).lookup(la); l != nil {
			if !found {
				data = l.data
				found = true
			}
			if l.dirty {
				wasDirty = true
				l.dirty = false
			}
		}
	}
	return data, found && wasDirty
}

// DirtyLine reports whether la is dirty in any level for core, returning
// its contents if so (LAD's commit-time flush uses this).
func (h *Hierarchy) DirtyLine(core int, la mem.Addr) ([mem.LineSize]byte, bool) {
	la = la.Line()
	for lvl := 0; lvl < 3; lvl++ {
		if l := h.level(lvl, core).lookup(la); l != nil && l.dirty {
			return l.data, true
		}
	}
	return [mem.LineSize]byte{}, false
}

// ForceWriteBackAll writes every dirty line in the whole hierarchy back to
// the memory controller and marks it clean (FWB's periodic force
// write-back). It returns the number of lines written back.
func (h *Hierarchy) ForceWriteBackAll(now sim.Cycle) int {
	n := 0
	flush := func(c *Cache) {
		for i := range c.arr {
			l := &c.arr[i]
			if c.tags[i] != invalidTag && l.dirty {
				h.Writebacks++
				h.writeback(now, l.addr, l.data)
				l.dirty = false
				n++
			}
		}
	}
	for i := range h.l1 {
		flush(h.l1[i])
		flush(h.l2[i])
	}
	flush(h.l3)
	return n
}

// InvalidateAll drops every line — the volatile caches at a crash.
// Only the filled tags are reset; the stale line records are unreachable
// once their tags are invalid.
func (h *Hierarchy) InvalidateAll() {
	for i := range h.l1 {
		h.l1[i].reset()
		h.l2[i].reset()
	}
	h.l3.reset()
}

// Release returns every level's arrays to the pool for the next machine.
// The hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	for i := range h.l1 {
		h.l1[i].Release()
		h.l2[i].Release()
	}
	h.l3.Release()
}

func wordAt(d *[mem.LineSize]byte, addr mem.Addr) mem.Word {
	o := addr.Word().LineOffset()
	return mem.Word(binary.LittleEndian.Uint64(d[o : o+8]))
}

func putWordAt(d *[mem.LineSize]byte, addr mem.Addr, w mem.Word) {
	o := addr.Word().LineOffset()
	binary.LittleEndian.PutUint64(d[o:o+8], uint64(w))
}
