package pm

import (
	"math/bits"

	"silo/internal/mem"
)

// This file holds the device's flattened hot structures: the media
// lines behind a mem.Radix, and the on-PM buffer behind an open-addressed
// table with multiplicative (Fibonacci) hashing and linear probing.

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

// Media entries live in fixed pages of mediaPageSize entries (40 KB).
// Growing the table allocates one more page and never moves an entry,
// so a run that touches n lines allocates about n entries' worth of
// storage instead of the ~5x a doubling-then-1.25x slice regrows.
const (
	mediaPageBits = 9
	mediaPageSize = 1 << mediaPageBits
)

// mediaLeaf holds the entry ref of each line of one 512 B block: entry
// index + 1, 0 = none. The entries stay dense in their pages, so a block
// with one touched line costs 4 B per line of index, not an entry per
// line.
type mediaLeaf [mem.RadixLeafBytes / mem.LineSize]int32

// mediaTable indexes paged mediaEntry storage by line address. Lines are
// never removed. A ref (entry index + 1, assigned in insertion order)
// and the entry pointer it resolves to stay valid until reset.
//
// The table remembers the last line it resolved. Workload setup pokes a
// dataset word by word (a Hash bucket is 9 words of one line), so most
// lookups repeat the previous line and skip the index; only reset
// clears the memo.
type mediaTable struct {
	idx   mem.Radix[mediaLeaf]
	pages []*[mediaPageSize]mediaEntry
	n     int // entries in use: refs 1..n

	lastLine mem.Addr
	lastRef  int32 // ref of lastLine; 0 = none
}

// at returns the entry for ref (1..n).
func (t *mediaTable) at(ref int32) *mediaEntry {
	i := ref - 1
	return &t.pages[i>>mediaPageBits][i&(mediaPageSize-1)]
}

func leafSlot(line mem.Addr) int { return int(line>>mem.LineShift) % len(mediaLeaf{}) }

// get returns the entry for line, or nil.
func (t *mediaTable) get(line mem.Addr) *mediaEntry {
	if t.lastRef != 0 && t.lastLine == line {
		return t.at(t.lastRef)
	}
	li := t.idx.Lookup(line)
	if li == 0 {
		return nil
	}
	ref := t.idx.Leaf(li)[leafSlot(line)]
	if ref == 0 {
		return nil
	}
	t.lastLine, t.lastRef = line, ref
	return t.at(ref)
}

// getOrInsert returns the entry for line, creating a zeroed one if absent.
func (t *mediaTable) getOrInsert(line mem.Addr) *mediaEntry {
	if t.lastRef != 0 && t.lastLine == line {
		return t.at(t.lastRef)
	}
	li, fresh := t.idx.Bind(line)
	leaf := t.idx.Leaf(li)
	if fresh {
		clear(leaf[:])
	}
	ref := &leaf[leafSlot(line)]
	if *ref == 0 {
		if t.n>>mediaPageBits == len(t.pages) {
			t.pages = append(t.pages, new([mediaPageSize]mediaEntry))
		}
		t.n++
		*ref = int32(t.n)
		// Build the entry in place: a page reused after reset holds
		// stale contents, so every field is written.
		e := t.at(*ref)
		e.line, e.wear = line, 0
		clear(e.data[:])
	}
	t.lastLine, t.lastRef = line, *ref
	return t.at(*ref)
}

// reset empties the table for an unrelated new run, keeping the index
// and the entry pages. A reset table is observationally identical to a
// fresh one — every lookup misses, every insert starts from zeroed entry
// contents, and iteration (always refs 1..n, insertion order) sees the
// same sequence — only the reallocation of repopulating is gone, which
// is the dominant per-campaign allocation cost of the torture fleet.
// Recyclers reset a device's table when it is returned, so a pooled
// table is clean while it waits.
func (t *mediaTable) reset() {
	t.idx.Reset()
	t.n = 0
	t.lastRef = 0
}

// memFootprint approximates the table's retained bytes, so a recycler
// can drop a table that one outsized campaign ballooned.
func (t *mediaTable) memFootprint() int {
	return t.idx.MemFootprint() + len(t.pages)*mediaPageSize*(16+mem.LineSize)
}

// bufLine is one on-PM buffer line in the fixed pool: contents plus a
// one-bit-per-byte dirty bitmap (the per-byte bool slice it replaces was
// 8x the footprint and byte-at-a-time to scan).
type bufLine struct {
	base  mem.Addr
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
// touched) so LRU eviction is O(1) instead of a pool scan: every touch
// is a move-to-tail.
type bufTable struct {
	slots []int32 // pool index + 1; 0 = empty
	mask  int
	pool  []bufLine
	used  []bool
	free  []int32
	n     int // live lines

	prev, next []int32 // recency list links by pool index; -1 = none
	head, tail int32

	drain []int32 // DrainAll's scratch: live pool indices in address order
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
	return int((uint64(base)*mem.FibMul)>>32) & t.mask
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
