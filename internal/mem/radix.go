package mem

import "unsafe"

// Radix geometry (constants, not knobs): a leaf covers one 512 B block,
// a mid covers one 4 MB chunk with 8 192 leaf refs, and the top level,
// indexed by addr>>22, grows on demand to the highest chunk bound (at
// most 4 096 entries for the 16 GB layout). Leaves come 64 to a page:
// runs that keep binding new blocks (an overflowing log) stay zero-alloc.
const (
	RadixLeafShift  = 9 // log2 of the bytes a leaf covers
	RadixLeafBytes  = 1 << RadixLeafShift
	radixChunkShift = 22
	radixMidSize    = 1 << (radixChunkShift - RadixLeafShift)
	radixPageBits   = 6
	radixPageLeaves = 1 << radixPageBits
)

// radixMid maps the leaves of one 4 MB chunk: leaf ref, 0 = none.
type radixMid [radixMidSize]int32

// Radix is a two-level index from 512 B block to a leaf of type L. The
// addresses a run touches are dense — threads are isolated (§III-A) and
// each core has its own heap arena and log area — so a leaf covering a
// block fills well and the index needs no hashing, probing or rehash.
//
// A leaf's ref (1..Len, in bind order) and its pointer stay valid until
// Reset: leaves live in fixed pages that never move. Reset unbinds only
// the leaves the run bound and keeps the top level, the mids and the
// pages, so a reused index costs what the next run touches. The zero
// value is an empty index.
type Radix[L any] struct {
	top    []*radixMid
	mids   int // non-nil entries of top
	pages  []*[radixPageLeaves]L
	blocks []Addr // blocks[ref-1] is the base address leaf ref covers
}

// Lookup returns the ref of the leaf bound to a's block, or 0.
func (r *Radix[L]) Lookup(a Addr) int32 {
	c := uint64(a) >> radixChunkShift
	if c >= uint64(len(r.top)) || r.top[c] == nil {
		return 0
	}
	return r.top[c][uint64(a)>>RadixLeafShift%radixMidSize]
}

// Bind returns the ref of the leaf bound to a's block, binding the next
// leaf if there is none. fresh reports a newly bound leaf: its contents
// are zero or left over from an earlier run, and the caller clears what
// it needs.
func (r *Radix[L]) Bind(a Addr) (ref int32, fresh bool) {
	if ref = r.Lookup(a); ref != 0 {
		return ref, false
	}
	c := uint64(a) >> radixChunkShift
	if c >= uint64(len(r.top)) {
		r.top = append(r.top, make([]*radixMid, c+1-uint64(len(r.top)))...)
	}
	mid := r.top[c]
	if mid == nil {
		mid = new(radixMid)
		r.top[c] = mid
		r.mids++
	}
	if len(r.blocks) == len(r.pages)*radixPageLeaves {
		r.pages = append(r.pages, new([radixPageLeaves]L))
	}
	r.blocks = append(r.blocks, a&^(RadixLeafBytes-1))
	ref = int32(len(r.blocks))
	mid[uint64(a)>>RadixLeafShift%radixMidSize] = ref
	return ref, true
}

// Leaf returns leaf ref (1..Len).
func (r *Radix[L]) Leaf(ref int32) *L {
	i := ref - 1
	return &r.pages[i>>radixPageBits][i&(radixPageLeaves-1)]
}

// Base returns the address of the first byte leaf ref covers.
func (r *Radix[L]) Base(ref int32) Addr { return r.blocks[ref-1] }

// Len returns the number of leaves bound since the last Reset.
func (r *Radix[L]) Len() int { return len(r.blocks) }

// Reset unbinds every leaf: it clears the mid slot of each leaf this run
// bound, and nothing else. Lookups then miss, and Bind hands the kept
// leaves out again as fresh.
func (r *Radix[L]) Reset() {
	for _, b := range r.blocks {
		r.top[uint64(b)>>radixChunkShift][uint64(b)>>RadixLeafShift%radixMidSize] = 0
	}
	r.blocks = r.blocks[:0]
}

// MemFootprint approximates the index's retained bytes: the top level,
// the mids, the leaf pages and the block list.
func (r *Radix[L]) MemFootprint() int {
	var leaf L
	return cap(r.top)*8 + r.mids*int(unsafe.Sizeof(radixMid{})) +
		cap(r.pages)*8 + len(r.pages)*radixPageLeaves*int(unsafe.Sizeof(leaf)) +
		cap(r.blocks)*8
}
