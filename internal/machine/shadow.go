package machine

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"

	"silo/internal/mem"
)

// This file holds the machine's flattened golden-shadow structures. The
// shadow model is on the per-store hot path (baseline capture, pending
// tracking, commit promotion), so the Go maps it used to live in showed
// up as a steady slice of the whole-simulation profile.
//
// The golden shadow is a two-level radix index by word address. Threads
// are isolated (§III-A) and pmheap gives each core its own bump arena,
// so the words a run writes form dense runs of addresses and a leaf of
// 64 consecutive words fills well: no hashing, no probing, no growth
// that moves an entry. The per-core pending-write tables stay hashed:
// they hold one transaction's write set and are cleared per commit.

// shadowFibMul is 2^64 / phi, the multiplicative-hash constant.
const shadowFibMul = 0x9E3779B97F4A7C15

const (
	shadowHasCommitted = 1 << iota
	shadowHasBaseline
	shadowUnsafe
)

// Radix geometry (constants, not knobs): a leaf covers 64 words (512 B),
// a mid covers one 4 MB chunk with 8 192 leaf refs, and the top level,
// indexed by addr>>22, grows on demand to the highest chunk written (at
// most 4 096 entries for the 16 GB layout).
const (
	shadowLeafWords  = 64
	shadowLeafShift  = 9 // log2 of the bytes a leaf covers
	shadowChunkShift = 22
	shadowMidSize    = 1 << (shadowChunkShift - shadowLeafShift)
)

// shadowLeaf is the golden durability record of 64 consecutive words:
// per word the last committed value, the pre-first-write baseline, and
// flags saying which of them exist and whether a non-transactional store
// tainted the word. used marks the words this run inserted; a word's
// values mean something only while its used bit and the matching flag
// are set, so a reused leaf needs no clearing beyond used. 1 104 B.
type shadowLeaf struct {
	base      mem.Addr // address of word 0
	used      uint64
	flags     [shadowLeafWords]uint8
	committed [shadowLeafWords]mem.Word
	baseline  [shadowLeafWords]mem.Word
}

// shadowMid maps the leaves of one 4 MB chunk: leaf index + 1, 0 = none.
type shadowMid [shadowMidSize]int32

// shadowIndex indexes the golden shadow by word address. Leaves are
// allocated one at a time and never move, so a leaf pointer and a word
// ref (leaf index·64 + word + 1) stay valid until reset. Pending writes
// carry their ref, so commit promotion and the Log-as-Data audit index
// the word without walking the radix levels again.
type shadowIndex struct {
	top    []*shadowMid
	mids   int           // non-nil entries of top, for memFootprint
	leaves []*shadowLeaf // leaves[:n] are bound this run; the rest wait for reuse
	n      int
}

func newShadowIndex() *shadowIndex { return &shadowIndex{} }

// at returns the leaf and word index for ref.
func (t *shadowIndex) at(ref int32) (*shadowLeaf, int) {
	i := ref - 1
	return t.leaves[i/shadowLeafWords], int(i % shadowLeafWords)
}

// get returns the leaf and word index holding addr, or a nil leaf when
// the word was never inserted.
func (t *shadowIndex) get(addr mem.Addr) (*shadowLeaf, int) {
	c := uint64(addr) >> shadowChunkShift
	if c >= uint64(len(t.top)) || t.top[c] == nil {
		return nil, 0
	}
	li := t.top[c][uint64(addr)>>shadowLeafShift%shadowMidSize]
	if li == 0 {
		return nil, 0
	}
	l, w := t.leaves[li-1], wordOf(addr)
	if l.used&(1<<w) == 0 {
		return nil, 0
	}
	return l, w
}

// getOrInsert returns the leaf, word index and ref of addr, inserting
// the word with zero flags if absent.
func (t *shadowIndex) getOrInsert(addr mem.Addr) (*shadowLeaf, int, int32) {
	c := uint64(addr) >> shadowChunkShift
	var li int32
	if c < uint64(len(t.top)) && t.top[c] != nil {
		li = t.top[c][uint64(addr)>>shadowLeafShift%shadowMidSize]
	}
	if li == 0 {
		li = t.bind(addr)
	}
	l, w := t.leaves[li-1], wordOf(addr)
	if bit := uint64(1) << w; l.used&bit == 0 {
		l.used |= bit
		l.flags[w] = 0
	}
	return l, w, (li-1)*shadowLeafWords + int32(w) + 1
}

// recordTx records a transactional store to addr whose pre-store value
// was old: the word's first such store captures old as its baseline. It
// returns the word's ref for the pending write.
func (t *shadowIndex) recordTx(addr mem.Addr, old mem.Word) int32 {
	l, w, ref := t.getOrInsert(addr)
	if l.flags[w]&shadowHasBaseline == 0 {
		l.baseline[w] = old
		l.flags[w] |= shadowHasBaseline
	}
	return ref
}

// taint records a non-transactional store to addr: the word can no
// longer be verified.
func (t *shadowIndex) taint(addr mem.Addr) {
	l, w, _ := t.getOrInsert(addr)
	l.flags[w] |= shadowUnsafe
}

// promote makes val the committed value of the word behind ref.
func (t *shadowIndex) promote(ref int32, val mem.Word) {
	l, w := t.at(ref)
	l.committed[w] = val
	l.flags[w] |= shadowHasCommitted
}

func wordOf(addr mem.Addr) int { return int(addr>>mem.WordShift) % shadowLeafWords }

// bind binds a leaf to the 512 B block holding addr — growing the top
// level and building the chunk's mid if needed — and returns its index
// + 1. A leaf left over from an earlier run is reused before a new one
// is allocated.
func (t *shadowIndex) bind(addr mem.Addr) int32 {
	c := uint64(addr) >> shadowChunkShift
	if c >= uint64(len(t.top)) {
		t.top = append(t.top, make([]*shadowMid, c+1-uint64(len(t.top)))...)
	}
	mid := t.top[c]
	if mid == nil {
		mid = new(shadowMid)
		t.top[c] = mid
		t.mids++
	}
	if t.n == len(t.leaves) {
		t.leaves = append(t.leaves, new(shadowLeaf))
	}
	t.leaves[t.n].base = addr &^ (1<<shadowLeafShift - 1)
	t.n++
	li := int32(t.n)
	mid[uint64(addr)>>shadowLeafShift%shadowMidSize] = li
	return li
}

// written returns, in ascending address order, every word a transaction
// wrote and no non-transactional store tainted. It sorts the bound
// leaves (a copy, so refs stay valid), not the words.
func (t *shadowIndex) written() []mem.Addr {
	leaves := slices.Clone(t.leaves[:t.n])
	slices.SortFunc(leaves, func(a, b *shadowLeaf) int { return cmp.Compare(a.base, b.base) })
	n := 0
	for _, l := range leaves {
		n += bits.OnesCount64(l.used)
	}
	out := make([]mem.Addr, 0, n)
	for _, l := range leaves {
		for u := l.used; u != 0; u &= u - 1 {
			if w := bits.TrailingZeros64(u); l.flags[w]&(shadowHasBaseline|shadowUnsafe) == shadowHasBaseline {
				out = append(out, l.base+mem.Addr(w)*mem.WordSize)
			}
		}
	}
	return out
}

// reset empties the index for an unrelated new run: it clears the used
// bitmap and the mid slot of each leaf this run bound, and nothing else,
// so it costs what the run touched. The top level, the mids and the
// leaves are kept. Observationally identical to a fresh index: lookups
// miss, inserted words start with zero flags, and written is
// capacity-blind.
func (t *shadowIndex) reset() {
	for _, l := range t.leaves[:t.n] {
		t.top[uint64(l.base)>>shadowChunkShift][uint64(l.base)>>shadowLeafShift%shadowMidSize] = 0
		l.used = 0
	}
	t.n = 0
}

// memFootprint approximates retained bytes for the recycler's size cap.
func (t *shadowIndex) memFootprint() int {
	return cap(t.top)*8 + t.mids*int(unsafe.Sizeof(shadowMid{})) +
		cap(t.leaves)*8 + len(t.leaves)*int(unsafe.Sizeof(shadowLeaf{}))
}

// txKV is one pending (uncommitted) write: word address, newest value,
// and the word's golden-shadow ref.
type txKV struct {
	addr mem.Addr
	val  mem.Word
	ref  int32
}

// txWrites tracks one core's writes inside the current transaction —
// the per-core pending map, flattened. reset is O(writes touched), not
// O(table), so the per-transaction clear costs nothing when idle.
type txWrites struct {
	slots   []int32 // entry index + 1; 0 = empty
	mask    int
	entries []txKV
	touched []int32 // slot indices in use, for reset
}

func newTxWrites() *txWrites {
	return &txWrites{slots: make([]int32, 64), mask: 63}
}

func (t *txWrites) home(addr mem.Addr) int {
	return int((uint64(addr)*shadowFibMul)>>32) & t.mask
}

// put records addr := val, overwriting any earlier write of addr in this
// transaction. ref is addr's golden-shadow ref.
func (t *txWrites) put(addr mem.Addr, val mem.Word, ref int32) {
	i := t.home(addr)
	for t.slots[i] != 0 {
		if e := &t.entries[t.slots[i]-1]; e.addr == addr {
			e.val = val
			return
		}
		i = (i + 1) & t.mask
	}
	if 4*len(t.entries) >= 3*len(t.slots) {
		t.grow()
		i = t.home(addr)
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
	}
	t.entries = append(t.entries, txKV{addr: addr, val: val, ref: ref})
	t.slots[i] = int32(len(t.entries))
	t.touched = append(t.touched, int32(i))
}

// get returns the pending value of addr, if written this transaction.
func (t *txWrites) get(addr mem.Addr) (mem.Word, bool) {
	i := t.home(addr)
	for t.slots[i] != 0 {
		if e := &t.entries[t.slots[i]-1]; e.addr == addr {
			return e.val, true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// len returns the number of distinct words written this transaction.
func (t *txWrites) len() int { return len(t.entries) }

// reset clears the table for the next transaction, zeroing only the
// slots this transaction used.
func (t *txWrites) reset() {
	for _, i := range t.touched {
		t.slots[i] = 0
	}
	t.entries = t.entries[:0]
	t.touched = t.touched[:0]
}

func (t *txWrites) grow() {
	t.mask = 2*t.mask + 1
	t.slots = make([]int32, t.mask+1)
	t.touched = t.touched[:0]
	for idx := range t.entries {
		i := t.home(t.entries[idx].addr)
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(idx + 1)
		t.touched = append(t.touched, int32(i))
	}
}
