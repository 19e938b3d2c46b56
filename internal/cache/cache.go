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
	"fmt"
	"math/bits"
	"sync"

	"silo/internal/mem"
	"silo/internal/pool"
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

// line is one resident line's record: its data and dirty flag. The
// address is the tag of the way holding it, so the record does not repeat it.
type line struct {
	data  [mem.LineSize]byte // held inline: no per-fill allocation
	dirty bool
}

// Line records live in fixed pages of linePageSize records (~16 KB).
const (
	linePageBits = 8
	linePageSize = 1 << linePageBits
)

// invalidTag marks an empty way in the tag array. It is not line-aligned,
// so no real line address can collide with it.
const invalidTag = ^mem.Addr(0)

// maxWays is the highest associativity a level may have: a set's
// recency word holds one 4-bit way index per way.
const maxWays = 16

// Cache is one set-associative level. Per-way state is dense: the tags
// and the record refs are two parallel arrays, so a lookup scans one
// contiguous run of tags. Recency is one word per set (see order), so
// an L1 hit on the set's most recent way needs no bookkeeping and the
// LRU victim of a full set is read in O(1). The tag array is the sole
// validity record — a way's ref is only read while its tag is valid — so
// whole-cache invalidation touches 8 bytes per line. A way holds only
// its line's ref; the record belongs to the Hierarchy's arena and moves
// with the line. A level builds its arrays on its first fill, so a cache
// never filled (the L3 of most runs shorter than its capacity) costs
// nothing; until then it reads shared all-invalid tags and all-zero
// recency words, and every lookup misses.
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
	cacheArrays
	pooled *cacheArrays

	Hits, Misses int64
}

// sparseResetDiv sets the sparse-reset fallback: the filled-way list
// holds at most len(tags)/sparseResetDiv entries, and once it is full
// reset sweeps the whole tag array instead (a memmove-speed fill beats
// scattered stores by then).
const sparseResetDiv = 8

// cacheArrays is one level's state, recycled by geometry: two per-way
// arrays (12 B per way) and one recency word per set (8 B per set).
// Until the level's first fill only tags and order are set, to the
// shared never-filled arrays. Because validity lives solely in the tag
// array, recycled refs may carry stale contents — they are unreachable
// until an insert overwrites them. A recycled set's order is stale too,
// but it is always a permutation of the set's ways, and insert takes any
// invalid way before the LRU one, so a set only reads its order for a
// victim once every way was filled, and so moved to the front, since the
// last reset. A pooled cacheArrays is clean when returned, not when
// taken: Release resets the tags (and empties the list) before the put,
// so NewCache takes it as is.
type cacheArrays struct {
	tags []mem.Addr // line address per way, or invalidTag for an empty way
	refs []int32    // the line's record in the hierarchy's arena; stale unless tag valid
	// order is each set's recency word: its way indices, 4 bits each,
	// most recent in the low nibble and LRU in nibble ways-1.
	order  []uint64
	filled []int32 // ways filled since the last reset; len == cap means sweep
}

// geometry keys the array pools: a cache's arrays fit only caches of the
// same set and way counts.
type geometry struct{ sets, ways int }

// arrPools recycles cacheArrays by geometry. Short-lived machines (the
// torture fleet builds thousands per sweep) otherwise spend more time
// building fresh arrays than simulating.
var arrPools sync.Map // geometry -> *arrPool

// arrPool is the free list of one geometry. Its new arrays are never
// filled: their tags and order are the shared never-filled arrays.
type arrPool struct {
	invalid []mem.Addr // one per way, all invalidTag
	order   []uint64   // one per set, all zero
	free    pool.List[cacheArrays]
}

func getArrays(g geometry) *cacheArrays {
	p, ok := arrPools.Load(g)
	if !ok {
		// Never-filled caches of this geometry share one all-invalid tag
		// array and one all-zero order array, so a lookup probes and
		// scans them like any other and misses. They are never written:
		// alloc replaces both before the first fill, and reset skips a
		// cache that has none of its own.
		invalid := make([]mem.Addr, g.sets*g.ways)
		fillInvalid(invalid)
		p, _ = arrPools.LoadOrStore(g, &arrPool{invalid: invalid, order: make([]uint64, g.sets)})
	}
	ap := p.(*arrPool)
	if a := ap.free.Get(); a != nil {
		return a
	}
	return &cacheArrays{tags: ap.invalid, order: ap.order}
}

// alloc builds the arrays of a cache of geometry g, replacing the shared
// never-filled ones. Every set's order starts as the identity
// permutation.
func (a *cacheArrays) alloc(g geometry) {
	n := g.sets * g.ways
	a.tags, a.refs = make([]mem.Addr, n), make([]int32, n)
	a.order = make([]uint64, g.sets)
	a.filled = make([]int32, 0, n/sparseResetDiv)
	fillInvalid(a.tags)
	id := uint64(0xfedcba9876543210) &^ (^uint64(0) << (4 * g.ways)) // ways-1 … 1 0
	for s := range a.order {
		a.order[s] = id
	}
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

// NewCache builds a cache from cfg. It panics if cfg has more than 16
// ways.
func NewCache(cfg Config) *Cache {
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache: %s has %d ways, at most %d are supported", cfg.Name, cfg.Ways, maxWays))
	}
	sets := cfg.Size / (mem.LineSize * cfg.Ways)
	if sets < 1 {
		sets = 1
	}
	mask := -1
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	a := getArrays(geometry{sets, cfg.Ways})
	return &Cache{cfg: cfg, sets: sets, setMask: mask, ways: cfg.Ways,
		cacheArrays: *a, pooled: a}
}

// Release resets the cache and returns its arrays to the pool, so pooled
// arrays are always clean. The cache must not be used afterwards.
func (c *Cache) Release() {
	if c.pooled == nil {
		return
	}
	c.reset()
	*c.pooled = c.cacheArrays
	if p, ok := arrPools.Load(geometry{c.sets, c.ways}); ok {
		p.(*arrPool).free.Put(c.pooled)
	}
	c.pooled, c.cacheArrays = nil, cacheArrays{}
}

// reset invalidates every way: only the ways noted as filled, or the
// whole tag array once the note list overflowed.
func (c *Cache) reset() {
	if c.refs == nil {
		return // never filled: the tags are the shared all-invalid array
	}
	if len(c.filled) == cap(c.filled) {
		fillInvalid(c.tags)
	} else {
		for _, i := range c.filled {
			c.tags[i] = invalidTag
		}
	}
	c.filled = c.filled[:0]
}

// set returns the index of addr's set.
func (c *Cache) set(addr mem.Addr) int {
	idx := uint64(addr >> mem.LineShift)
	if c.setMask >= 0 {
		return int(idx) & c.setMask
	}
	return int(idx % uint64(c.sets))
}

// scan returns the index of the way holding la's line in the set whose
// first way is base, or -1.
func (c *Cache) scan(base int, la mem.Addr) int {
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i] == la {
			return base + i
		}
	}
	return -1
}

// find returns the index of the way holding la's line, or -1.
func (c *Cache) find(la mem.Addr) int { return c.scan(c.set(la)*c.ways, la) }

// hit returns the index of the way holding la's line and makes it the
// most recent of its set, or returns -1. A hit on the set's most recent
// way leaves the order as it is, so it costs one tag compare.
func (c *Cache) hit(la mem.Addr) int {
	s := c.set(la)
	base := s * c.ways
	if w := base + int(c.order[s]&0xf); c.tags[w] == la {
		return w
	}
	w := c.scan(base, la)
	if w >= 0 {
		c.touch(s, w-base)
	}
	return w
}

// Nibble constants for the SWAR search of a recency word.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// touch makes way i the most recent of set s: the ways ahead of it in
// the recency word move back one nibble, the ways behind it stay. The
// nibble holding i is the word's lowest zero nibble after XOR with i in
// every nibble; the subtract-and-mask test marks it exactly, since it
// can mark a spurious nibble only above a true zero.
func (c *Cache) touch(s, i int) {
	o := c.order[s]
	x := o ^ uint64(i)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHigh)) &^ 3 // 4 × i's position
	keep := ^uint64(0) << p << 4                                       // the ways behind i
	c.order[s] = o&keep | (o&^keep)<<4&^keep | uint64(i)
}

// insert places la's line, whose record is ref, and returns the victim's
// address and ref; the address is invalidTag if no line was displaced.
// The victim is the set's first invalid way by index, else its LRU way.
func (c *Cache) insert(la mem.Addr, ref int32) (mem.Addr, int32) {
	if c.refs == nil {
		c.alloc(geometry{c.sets, c.ways})
	}
	s := c.set(la)
	base := s * c.ways
	tags := c.tags[base : base+c.ways]
	vi := c.scan(base, invalidTag) - base
	if vi < 0 {
		vi = int(c.order[s] >> (4 * (c.ways - 1)) & 0xf) // full set: the LRU way
	}
	c.touch(s, vi)
	w := base + vi
	va, vr := tags[vi], c.refs[w]
	if va == invalidTag && len(c.filled) < cap(c.filled) {
		c.filled = append(c.filled, int32(w))
	}
	tags[vi] = la
	c.refs[w] = ref
	return va, vr
}

// remove invalidates la's way and returns its line's ref, or 0 if la is
// not cached. The record now belongs to the caller.
func (c *Cache) remove(la mem.Addr) int32 {
	w := c.find(la)
	if w < 0 {
		return 0
	}
	c.tags[w] = invalidTag
	return c.refs[w]
}

// arena holds a hierarchy's line records: the hierarchy is exclusive, so
// each resident line has one, which moves with it between levels. A ref
// is index + 1 into the pages. Each ref issued since the last reset is
// held by one valid way, in flight on the miss path, or free. Issuing
// rewrites a record whole, so a free record's data is dead: its first
// bytes link the next free ref, and the free list needs no storage.
type arena struct {
	pages []*[linePageSize]line
	bound int32 // refs issued since the last reset: 1..bound
	free  int32 // newest free ref, or 0 when the list is empty
}

// arenaPool recycles arenas across hierarchies, as arrPools does arrays.
var arenaPool pool.List[arena]

func (a *arena) rec(ref int32) *line {
	r := ref - 1
	return &a.pages[r>>linePageBits][r&(linePageSize-1)]
}

// alloc issues a record: the newest free ref, else the next one never
// issued, adding a page when all paged records are issued.
func (a *arena) alloc() int32 {
	if r := a.free; r != 0 {
		a.free = int32(binary.LittleEndian.Uint32(a.rec(r).data[:4]))
		return r
	}
	if int(a.bound)>>linePageBits == len(a.pages) {
		a.pages = append(a.pages, new([linePageSize]line))
	}
	a.bound++
	return a.bound
}

// release puts ref, which no way holds any more, on the free list.
func (a *arena) release(ref int32) {
	binary.LittleEndian.PutUint32(a.rec(ref).data[:4], uint32(a.free))
	a.free = ref
}

// reset takes back every record at once; the pages stay for reuse.
func (a *arena) reset() { a.bound, a.free = 0, 0 }

// FillFn reads a line from memory at time now into the whole of dst and
// returns the latency (which may include interference from queued writes).
type FillFn func(la mem.Addr, now sim.Cycle, dst *[mem.LineSize]byte) sim.Cycle

// WritebackFn delivers a dirty line evicted from the LLC to the memory
// controller at time now.
type WritebackFn func(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte)

// Hierarchy is the full 3-level cache system for all cores.
type Hierarchy struct {
	cfg       HierarchyConfig
	l1, l2    []*Cache
	l3        *Cache
	arena     // the record of every resident line, at any level
	pooled    *arena
	fill      FillFn
	writeback WritebackFn
	tel       *telemetry.Recorder

	Writebacks int64 // dirty LLC evictions
}

// SetTelemetry attaches the probe-event recorder (nil disables probes).
func (h *Hierarchy) SetTelemetry(r *telemetry.Recorder) { h.tel = r }

// NewHierarchy builds per-core L1/L2 and a shared L3.
func NewHierarchy(cores int, cfg HierarchyConfig, fill FillFn, writeback WritebackFn) *Hierarchy {
	a := arenaPool.Get()
	if a == nil {
		a = new(arena)
	}
	h := &Hierarchy{cfg: cfg, l3: NewCache(cfg.L3), arena: *a, pooled: a, fill: fill, writeback: writeback}
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
// resident line plus the access latency. The miss path is a separate
// function so the hit path keeps a small frame.
func (h *Hierarchy) access(core int, addr mem.Addr, now sim.Cycle) (*line, sim.Cycle) {
	l1 := h.l1[core]
	la := addr.Line()
	if w := l1.hit(la); w >= 0 {
		l1.Hits++
		return h.rec(l1.refs[w]), h.cfg.L1.Latency
	}
	return h.miss(core, la, now)
}

// miss moves la's record into core's L1 from L2 or L3, or fills a new one
// from memory in place. Each displaced line moves down one level, clean
// ones too (victim caching); a dirty LLC victim leaves through the
// write-back callback, and its record is freed once the callback returns.
func (h *Hierarchy) miss(core int, la mem.Addr, now sim.Cycle) (*line, sim.Cycle) {
	l1, l2 := h.l1[core], h.l2[core]
	l1.Misses++

	lat := h.cfg.L1.Latency + h.cfg.L2.Latency
	ref := l2.remove(la) // promote exclusively into L1
	if ref != 0 {
		l2.Hits++
	} else {
		l2.Misses++
		lat += h.cfg.L3.Latency
		if ref = h.l3.remove(la); ref != 0 {
			h.l3.Hits++
		} else {
			h.l3.Misses++
			ref = h.alloc()
			l := h.rec(ref)
			l.dirty = false
			lat += h.fill(la, now, &l.data)
		}
	}
	va, vr := l1.insert(la, ref)
	for lvl := 1; lvl < 3 && va != invalidTag; lvl++ {
		va, vr = h.level(lvl, core).insert(va, vr)
	}
	if va != invalidTag {
		if l := h.rec(vr); l.dirty {
			h.Writebacks++
			h.tel.LLCEvict(now, va)
			h.writeback(now, va, l.data)
		}
		h.release(vr)
	}
	return h.rec(ref), lat
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

// lookup returns the record of c's way holding addr's line, or nil.
func (h *Hierarchy) lookup(c *Cache, addr mem.Addr) *line {
	if w := c.find(addr.Line()); w >= 0 {
		return h.rec(c.refs[w])
	}
	return nil
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
		if l := h.lookup(h.level(lvl, core), la); l != nil {
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
		if l := h.lookup(h.level(lvl, core), la); l != nil && l.dirty {
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
		for w, tag := range c.tags {
			if tag == invalidTag {
				continue
			}
			if l := h.rec(c.refs[w]); l.dirty {
				h.Writebacks++
				h.writeback(now, tag, l.data)
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

// InvalidateAll drops every line — the volatile caches at a crash. It
// resets only the filled tags and takes back every record at once; stale
// refs and records are unreachable while the tags are invalid, and each
// set's recency word stays a permutation of its ways.
func (h *Hierarchy) InvalidateAll() {
	for i := range h.l1 {
		h.l1[i].reset()
		h.l2[i].reset()
	}
	h.l3.reset()
	h.arena.reset()
}

// Release returns every level's arrays and the record arena to their
// pools for the next machine. The hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	for i := range h.l1 {
		h.l1[i].Release()
		h.l2[i].Release()
	}
	h.l3.Release()
	if h.pooled != nil {
		h.arena.reset()
		*h.pooled = h.arena
		arenaPool.Put(h.pooled)
		h.pooled, h.arena = nil, arena{}
	}
}

func wordAt(d *[mem.LineSize]byte, addr mem.Addr) mem.Word {
	o := addr.Word().LineOffset()
	return mem.Word(binary.LittleEndian.Uint64(d[o : o+8]))
}

func putWordAt(d *[mem.LineSize]byte, addr mem.Addr, w mem.Word) {
	o := addr.Word().LineOffset()
	binary.LittleEndian.PutUint64(d[o:o+8], uint64(w))
}
