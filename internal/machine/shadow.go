package machine

import (
	"cmp"
	"math/bits"
	"slices"

	"silo/internal/mem"
)

// This file holds the machine's flattened golden-shadow structures. The
// shadow model is on the per-store hot path (baseline capture, pending
// tracking, commit promotion), so the Go maps it used to live in showed
// up as a steady slice of the whole-simulation profile.
//
// The golden shadow is a mem.Radix of 64-word leaves: the words a run
// writes form dense runs of addresses, so a leaf fills well. The
// per-core pending-write tables stay hashed: they hold one transaction's
// write set and are cleared per commit.

const (
	shadowHasCommitted = 1 << iota
	shadowHasBaseline
	shadowUnsafe
)

const shadowLeafWords = mem.RadixLeafBytes / mem.WordSize

// shadowLeaf is the golden durability record of one 512 B block's 64
// words: per word the last committed value, the pre-first-write
// baseline, and flags saying which of them exist and whether a
// non-transactional store tainted the word. A tainted word's committed
// value is its newest store, transactional or not: Machine.Peek answers
// loads from it, while verification (GoldenCommitted, written and
// InjectCrash's allowed values) skips tainted words, so it never reads
// that value. used marks the words this run inserted; a word's values
// mean something only while its used bit and the matching flag are set,
// so a reused leaf needs no clearing beyond used. 1 096 B.
type shadowLeaf struct {
	used      uint64
	flags     [shadowLeafWords]uint8
	committed [shadowLeafWords]mem.Word
	baseline  [shadowLeafWords]mem.Word
}

// shadowIndex indexes the golden shadow by word address. A word ref
// (leaf index·64 + word + 1) stays valid until Reset. Pending writes
// carry their ref, so commit promotion and the Log-as-Data audit index
// the word without walking the radix levels again. A reset index is
// observationally a fresh one: a fresh leaf's used bits and a new word's
// flags are cleared on insert, and written is capacity-blind.
type shadowIndex struct {
	mem.Radix[shadowLeaf]
}

func newShadowIndex() *shadowIndex { return &shadowIndex{} }

// at returns the leaf and word index for ref.
func (t *shadowIndex) at(ref int32) (*shadowLeaf, int) {
	i := ref - 1
	return t.Leaf(i/shadowLeafWords + 1), int(i % shadowLeafWords)
}

// get returns the leaf and word index holding addr, or a nil leaf when
// the word was never inserted.
func (t *shadowIndex) get(addr mem.Addr) (*shadowLeaf, int) {
	li := t.Lookup(addr)
	if li == 0 {
		return nil, 0
	}
	l, w := t.Leaf(li), wordOf(addr)
	if l.used&(1<<w) == 0 {
		return nil, 0
	}
	return l, w
}

// getOrInsert returns the leaf, word index and ref of addr, inserting
// the word with zero flags if absent.
func (t *shadowIndex) getOrInsert(addr mem.Addr) (*shadowLeaf, int, int32) {
	li, fresh := t.Bind(addr)
	l, w := t.Leaf(li), wordOf(addr)
	if fresh {
		l.used = 0
	}
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

// taint records a non-transactional store of val to addr: the word can
// no longer be verified, and val is its newest value.
func (t *shadowIndex) taint(addr mem.Addr, val mem.Word) {
	l, w, _ := t.getOrInsert(addr)
	l.committed[w] = val
	l.flags[w] |= shadowUnsafe
}

// promote makes val the committed value of the word behind ref.
func (t *shadowIndex) promote(ref int32, val mem.Word) {
	l, w := t.at(ref)
	l.committed[w] = val
	l.flags[w] |= shadowHasCommitted
}

func wordOf(addr mem.Addr) int { return int(addr>>mem.WordShift) % shadowLeafWords }

// written returns, in ascending address order, every word a transaction
// wrote and no non-transactional store tainted. It sorts the bound
// leaves, not the words.
func (t *shadowIndex) written() []mem.Addr {
	refs := make([]int32, t.Len())
	n := 0
	for i := range refs {
		refs[i] = int32(i + 1)
		n += bits.OnesCount64(t.Leaf(refs[i]).used)
	}
	slices.SortFunc(refs, func(a, b int32) int { return cmp.Compare(t.Base(a), t.Base(b)) })
	out := make([]mem.Addr, 0, n)
	for _, ref := range refs {
		l, base := t.Leaf(ref), t.Base(ref)
		for u := l.used; u != 0; u &= u - 1 {
			if w := bits.TrailingZeros64(u); l.flags[w]&(shadowHasBaseline|shadowUnsafe) == shadowHasBaseline {
				out = append(out, base+mem.Addr(w)*mem.WordSize)
			}
		}
	}
	return out
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
	return int((uint64(addr)*mem.FibMul)>>32) & t.mask
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
