package mem

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// radixAddrs draws word addresses the way runs touch them: dense runs
// inside four per-core heap arenas (split as pmheap splits the data
// region), each crossing several 4 MB chunk boundaries, plus the words
// just below and above LogBase.
func radixAddrs(rng *rand.Rand) func() Addr {
	layout := DefaultLayout()
	per := (layout.DataSize - 4096) / 4 &^ (LineSize - 1)
	return func() Addr {
		if rng.Intn(10) == 0 {
			return layout.LogBase - 4096 + Addr(rng.Intn(1024))*WordSize
		}
		base := layout.DataBase + 4096 + Addr(uint64(rng.Intn(4))*per)
		return base + Addr(rng.Intn(3<<20))*WordSize // 24 MB: six chunks
	}
}

// testLeaf records which block a leaf was bound to and how often the
// test touched it, so stale contents after Reset are visible.
type testLeaf struct {
	base    Addr
	touches int
}

// The radix must behave as a map from 512 B block to leaf: lookups and
// binds agree with a Go map across several arenas and chunks and around
// LogBase; refs and leaf pointers survive every later bind; Reset
// unbinds exactly the leaves the run bound, keeps the top level, the
// mids and the pages, and hands the reused leaves back as fresh with
// their stale contents.
func TestRadixMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	next := radixAddrs(rng)
	var r Radix[testLeaf]

	type bound struct {
		ref  int32
		leaf *testLeaf
	}
	for run := 0; run < 3; run++ {
		model := map[Addr]bound{} // block base -> binding
		for op := 0; op < 40000; op++ {
			addr := next()
			block := addr &^ (RadixLeafBytes - 1)
			ref, fresh := r.Bind(addr)
			l := r.Leaf(ref)
			b, ok := model[block]
			switch {
			case fresh == ok:
				t.Fatalf("run %d: Bind(%v) fresh=%v, but the model has it bound=%v", run, addr, fresh, ok)
			case fresh:
				if run == 0 && *l != (testLeaf{}) {
					t.Fatalf("run 0: new leaf for %v is not zero: %+v", addr, *l)
				}
				*l = testLeaf{base: block}
				model[block] = bound{ref, l}
			case b != (bound{ref, l}):
				t.Fatalf("run %d: block %v moved from ref %d %p to ref %d %p", run, block, b.ref, b.leaf, ref, l)
			}
			if r.Base(ref) != block {
				t.Fatalf("run %d: Base(%d) = %v, want %v", run, ref, r.Base(ref), block)
			}
			l.touches++
		}

		// Every ref and leaf pointer still resolves, lookups agree with
		// the model in both directions, and refs are 1..Len in bind order.
		if r.Len() != len(model) {
			t.Fatalf("run %d: Len %d, model holds %d blocks", run, r.Len(), len(model))
		}
		for block, b := range model {
			if got := r.Lookup(block + RadixLeafBytes - 1); got != b.ref {
				t.Fatalf("run %d: Lookup(%v) = %d, want %d", run, block, got, b.ref)
			}
			if r.Leaf(b.ref) != b.leaf || b.leaf.base != block {
				t.Fatalf("run %d: ref %d of %v no longer resolves to its leaf", run, b.ref, block)
			}
		}
		for i := 0; i < 20000; i++ {
			addr := next()
			if _, ok := model[addr&^(RadixLeafBytes-1)]; !ok && r.Lookup(addr) != 0 {
				t.Fatalf("run %d: Lookup(%v) found a block never bound", run, addr)
			}
		}

		// Reset unbinds exactly the bound leaves and keeps every part.
		top, mids, pages := len(r.top), r.mids, slices.Clone(r.pages)
		if r.Len() < 1000 || mids < 12 {
			t.Fatalf("run %d: only %d leaves in %d chunks; the test wants many of both", run, r.Len(), mids)
		}
		r.Reset()
		if r.Len() != 0 || len(r.top) != top || r.mids != mids || !slices.Equal(r.pages, pages) {
			t.Fatalf("run %d: Reset dropped or rebuilt storage", run)
		}
		for c, mid := range r.top {
			if mid != nil && *mid != (radixMid{}) {
				t.Fatalf("run %d: chunk %d still maps a leaf after Reset", run, c)
			}
		}
		for block := range model {
			if r.Lookup(block) != 0 {
				t.Fatalf("run %d: %v still resolves after Reset", run, block)
			}
		}
		// Reset leaves contents alone: the first rebind is fresh, and its
		// leaf still holds what the previous run wrote there.
		ref, fresh := r.Bind(next())
		if ref != 1 || !fresh || r.Leaf(ref).touches == 0 {
			t.Fatalf("run %d: first bind after Reset = ref %d fresh %v touches %d, want ref 1, fresh, stale",
				run, ref, fresh, r.Leaf(ref).touches)
		}
		r.Reset()
	}
}

// MemFootprint counts the top level, the mids, the leaf pages and the
// block list, so a user's recycler can drop an index spread over many
// chunks instead of pinning it.
func TestRadixFootprint(t *testing.T) {
	if s := unsafe.Sizeof(radixMid{}); s != 32<<10 {
		t.Fatalf("radixMid is %d B, want 32 KB", s)
	}
	var r Radix[[100]byte]
	for c := 0; c < 16; c++ {
		for b := 0; b < 3; b++ {
			r.Bind(Addr(c)<<radixChunkShift + Addr(b)*RadixLeafBytes)
		}
	}
	want := cap(r.top)*8 + 16*(32<<10) + cap(r.pages)*8 + 1*radixPageLeaves*100 + cap(r.blocks)*8
	if r.mids != 16 || r.Len() != 48 || len(r.pages) != 1 || r.MemFootprint() != want {
		t.Fatalf("%d mids, %d leaves, %d pages, footprint %d; want 16, 48, 1, %d",
			r.mids, r.Len(), len(r.pages), r.MemFootprint(), want)
	}
	for b := 0; b < radixPageLeaves; b++ {
		r.Bind(Addr(b) * RadixLeafBytes)
	}
	if len(r.pages) != 2 {
		t.Fatalf("%d leaves in %d pages, want 2", r.Len(), len(r.pages))
	}
}
