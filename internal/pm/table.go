package pm

import (
	"math/bits"
	"slices"

	"silo/internal/mem"
)

// This file holds the device's flattened hot structures: open-addressed
// address tables over dense entry storage, replacing the Go maps that
// dominated the device's profile. Both tables use multiplicative
// (Fibonacci) hashing and linear probing; entries carry their data
// inline, so the lookup that used to be a map access plus a pointer
// chase is one probe into a contiguous slice.

// fibMul is 2^64 / phi, the classic multiplicative-hash constant.
const fibMul = 0x9E3779B97F4A7C15

// byteMask expands an 8-bit per-byte mask into the 64-bit word mask with
// 0xFF at every selected byte lane — the DCW merge operates on whole
// words under this mask instead of byte at a time.
var byteMask [256]uint64

func init() {
	for m := 0; m < 256; m++ {
		var w uint64
		for b := 0; b < 8; b++ {
			if m&(1<<b) != 0 {
				w |= 0xFF << (8 * b)
			}
		}
		byteMask[m] = w
	}
}

// nonzeroBytes returns how many of x's 8 byte lanes are nonzero — the
// changed-byte count of a masked XOR diff.
func nonzeroBytes(x uint64) int {
	x |= x >> 4
	x |= x >> 2
	x |= x >> 1
	x &= 0x0101010101010101
	return bits.OnesCount64(x)
}

// mediaEntry is one 64 B media line with its wear counter inline: media
// contents and the endurance histogram always grow together (wear is
// only incremented on a media write), so one table serves both.
type mediaEntry struct {
	line mem.Addr
	wear int64
	data [mem.LineSize]byte
}

// mediaSlot is one index slot: the line tag is duplicated here so a probe
// resolves without a dependent load into the entry storage.
type mediaSlot struct {
	line mem.Addr
	ref  int32 // entry index + 1; 0 = empty
}

// mediaTable indexes mediaEntry storage by line address. Lines are never
// removed, so probing needs no deletion handling. Entry pointers are
// invalidated by the next getOrInsert (the dense slice may grow); callers
// must not hold one across inserts.
//
// The table remembers the last line it resolved. Workload setup pokes a
// dataset word by word (a Hash bucket is 9 words of one line), so most
// lookups repeat the previous line and skip the probe. Entry indices are
// stable across grow — it rehashes the slots, never the dense entries —
// so only reset clears the memo.
type mediaTable struct {
	slots   []mediaSlot
	shift   uint // 64 - log2(len(slots))
	entries []mediaEntry

	lastLine mem.Addr
	lastRef  int32 // entry index + 1 of lastLine; 0 = none
}

func newMediaTable() *mediaTable {
	return &mediaTable{slots: make([]mediaSlot, 1024), shift: 64 - 10}
}

func (t *mediaTable) home(line mem.Addr) int {
	return int((uint64(line) * fibMul) >> t.shift)
}

// get returns the entry for line, or nil.
func (t *mediaTable) get(line mem.Addr) *mediaEntry {
	if t.lastRef != 0 && t.lastLine == line {
		return &t.entries[t.lastRef-1]
	}
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.ref == 0 {
			return nil
		}
		if s.line == line {
			t.lastLine, t.lastRef = line, s.ref
			return &t.entries[s.ref-1]
		}
	}
}

// getOrInsert returns the entry for line, creating a zeroed one if absent.
func (t *mediaTable) getOrInsert(line mem.Addr) *mediaEntry {
	if t.lastRef != 0 && t.lastLine == line {
		return &t.entries[t.lastRef-1]
	}
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].ref != 0 {
		if t.slots[i].line == line {
			t.lastLine, t.lastRef = line, t.slots[i].ref
			return &t.entries[t.slots[i].ref-1]
		}
		i = (i + 1) & mask
	}
	if 4*len(t.entries) >= 3*len(t.slots) {
		t.grow()
		mask = len(t.slots) - 1
		i = t.home(line)
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
	}
	// Build the entry in place: storage reused after reset holds stale
	// contents, so every field is written.
	n := len(t.entries)
	t.entries = slices.Grow(t.entries, 1)[:n+1]
	e := &t.entries[n]
	e.line, e.wear = line, 0
	clear(e.data[:])
	ref := int32(n + 1)
	t.slots[i] = mediaSlot{line: line, ref: ref}
	t.lastLine, t.lastRef = line, ref
	return e
}

func (t *mediaTable) grow() {
	t.shift--
	t.slots = make([]mediaSlot, 2*len(t.slots))
	mask := len(t.slots) - 1
	for idx := range t.entries {
		line := t.entries[idx].line
		i := t.home(line)
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = mediaSlot{line: line, ref: int32(idx + 1)}
	}
}

// reset empties the table for an unrelated new run, keeping the slot
// array and entry storage at their grown capacity. A reset table is
// observationally identical to a fresh one — every lookup misses, every
// insert starts from zeroed entry contents, and iteration (always over
// the dense entries in insertion order) sees the same sequence — only
// the grow/rehash/realloc churn of repopulating from the 1024-slot seed
// size is gone, which is the dominant per-campaign allocation cost of
// the torture fleet. Recyclers reset a device's table when it is
// returned, so a pooled table is clean while it waits.
func (t *mediaTable) reset() {
	clear(t.slots)
	t.entries = t.entries[:0]
	t.lastRef = 0
}

// memFootprint approximates the table's retained bytes, so a recycler
// can drop a table that one outsized campaign ballooned.
func (t *mediaTable) memFootprint() int {
	return cap(t.slots)*16 + cap(t.entries)*(16+mem.LineSize)
}

// bufLine is one on-PM buffer line in the fixed pool: contents plus a
// one-bit-per-byte dirty bitmap (the per-byte bool slice it replaces was
// 8x the footprint and byte-at-a-time to scan).
type bufLine struct {
	base  mem.Addr
	lru   int64
	data  []byte
	dirty []uint64
}

// isDirty reports byte off's dirty bit.
func (l *bufLine) isDirty(off int) bool {
	return l.dirty[off>>6]>>(off&63)&1 != 0
}

// markDirty sets the dirty bits for [off, off+n).
func (l *bufLine) markDirty(off, n int) {
	for b := off; b < off+n; {
		bit := b & 63
		span := 64 - bit
		if rem := off + n - b; span > rem {
			span = rem
		}
		m := ^uint64(0)
		if span < 64 {
			m = (1<<span - 1) << bit
		}
		l.dirty[b>>6] |= m
		b += span
	}
}

// bufTable is the on-PM buffer: a fixed pool of capacity+1 line slots
// (bufMerge inserts before evicting, so the pool briefly overshoots by
// one) behind an open-addressed index with backward-shift deletion.
// Slots are recycled through a freelist; their byte storage is allocated
// once and reused, so steady-state buffer churn allocates nothing. Live
// lines are threaded on an intrusive recency list (head = least recently
// touched) so LRU eviction is O(1) instead of a pool scan; list order
// equals ascending lru because every touch is a move-to-tail.
type bufTable struct {
	slots []int32 // pool index + 1; 0 = empty
	mask  int
	pool  []bufLine
	used  []bool
	free  []int32
	n     int // live lines

	prev, next []int32 // recency list links by pool index; -1 = none
	head, tail int32
}

func newBufTable(lines, lineSize int) *bufTable {
	poolN := lines + 1
	capSlots := 8
	for capSlots < 4*poolN {
		capSlots <<= 1
	}
	t := &bufTable{
		slots: make([]int32, capSlots),
		mask:  capSlots - 1,
		pool:  make([]bufLine, poolN),
		used:  make([]bool, poolN),
		prev:  make([]int32, poolN),
		next:  make([]int32, poolN),
		head:  -1,
		tail:  -1,
	}
	words := (lineSize + 63) / 64
	for i := range t.pool {
		t.pool[i].data = make([]byte, lineSize)
		t.pool[i].dirty = make([]uint64, words)
		t.free = append(t.free, int32(i))
	}
	return t
}

// reset returns the table to its just-constructed state — empty index,
// full freelist in construction order, no recency links — keeping the
// pool's byte storage. Only valid when the geometry (lines, line size)
// is unchanged; a different geometry needs newBufTable.
func (t *bufTable) reset() {
	clear(t.slots)
	t.free = t.free[:0]
	for i := range t.pool {
		t.used[i] = false
		t.free = append(t.free, int32(i))
	}
	t.n = 0
	t.head, t.tail = -1, -1
}

// unlink removes pool index idx from the recency list.
func (t *bufTable) unlink(idx int32) {
	p, n := t.prev[idx], t.next[idx]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

// touch moves pool index idx to the recency-list tail (most recent).
func (t *bufTable) touch(idx int32) {
	if t.tail == idx {
		return
	}
	t.unlink(idx)
	t.prev[idx], t.next[idx] = t.tail, -1
	if t.tail >= 0 {
		t.next[t.tail] = idx
	} else {
		t.head = idx
	}
	t.tail = idx
}

func (t *bufTable) home(base mem.Addr) int {
	return int((uint64(base)*fibMul)>>32) & t.mask
}

// get returns the line for base, or nil.
func (t *bufTable) get(base mem.Addr) *bufLine {
	for i := t.home(base); ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return nil
		}
		if l := &t.pool[s-1]; l.base == base {
			return l
		}
	}
}

// getOrInsert returns the line for base and its pool index, taking a pool
// slot (dirty bits cleared; stale data bytes under clean bits are never
// read) when absent. The caller touches idx to record recency.
func (t *bufTable) getOrInsert(base mem.Addr) (l *bufLine, idx int32, inserted bool) {
	i := t.home(base)
	for t.slots[i] != 0 {
		if idx = t.slots[i] - 1; t.pool[idx].base == base {
			return &t.pool[idx], idx, false
		}
		i = (i + 1) & t.mask
	}
	idx = t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.slots[i] = idx + 1
	t.used[idx] = true
	t.n++
	l = &t.pool[idx]
	l.base = base
	clear(l.dirty)
	t.prev[idx], t.next[idx] = t.tail, -1
	if t.tail >= 0 {
		t.next[t.tail] = idx
	} else {
		t.head = idx
	}
	t.tail = idx
	return l, idx, true
}

// del removes base's line, returning its slot to the pool. Backward-shift
// deletion keeps probe chains tombstone-free.
func (t *bufTable) del(base mem.Addr) {
	i := t.home(base)
	for {
		s := t.slots[i]
		if s == 0 {
			return
		}
		if t.pool[s-1].base == base {
			break
		}
		i = (i + 1) & t.mask
	}
	idx := t.slots[i] - 1
	t.used[idx] = false
	t.free = append(t.free, idx)
	t.n--
	t.unlink(idx)
	j := i
	for {
		t.slots[i] = 0
		for {
			j = (j + 1) & t.mask
			if t.slots[j] == 0 {
				return
			}
			// The entry at j may fill the hole at i unless its home
			// position lies cyclically inside (i, j].
			k := t.home(t.pool[t.slots[j]-1].base)
			if (j-k)&t.mask >= (j-i)&t.mask {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}
