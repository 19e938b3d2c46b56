package machine

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"silo/internal/mem"
	"silo/internal/pmheap"
)

// shadowWord is the reference model's record of one word.
type shadowWord struct {
	flags               uint8
	committed, baseline mem.Word
}

// shadowAddrs draws word addresses the way runs write them: dense runs
// inside several per-core arenas (crossing 4 MB chunk boundaries), plus
// the words just below and above LogBase.
func shadowAddrs(rng *rand.Rand) func() mem.Addr {
	layout := mem.DefaultLayout()
	heap := pmheap.New(layout, 4)
	var bases []mem.Addr
	for i := 0; i < 4; i++ {
		bases = append(bases, heap.Alloc(i, mem.WordSize, mem.WordSize)) // the arena's first word
	}
	return func() mem.Addr {
		if rng.Intn(10) == 0 {
			return layout.LogBase - 4096 + mem.Addr(rng.Intn(1024))*mem.WordSize
		}
		base := bases[rng.Intn(len(bases))]
		return base + mem.Addr(rng.Intn(3<<20))*mem.WordSize // 24 MB: six chunks
	}
}

// The golden shadow must behave as a map from word address to (flags,
// committed, baseline): lookups, inserts and the WrittenWords sweep
// agree with a Go map across several arenas and chunks; refs survive
// every later insert; after reset every word misses, and a reused leaf
// hands out words with zero flags although its arrays still hold stale
// values. mem's TestRadixMatchesMap holds the index itself to a map.
func TestShadowIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	next := shadowAddrs(rng)
	tab := newShadowIndex()

	type bound struct {
		leaf *shadowLeaf
		w    int
		ref  int32
	}
	for run := 0; run < 3; run++ {
		model := map[mem.Addr]*shadowWord{}
		refs := map[mem.Addr]bound{}
		for op := 0; op < 40000; op++ {
			addr := next()
			l, w, ref := tab.getOrInsert(addr)
			m := model[addr]
			if m == nil {
				if l.flags[w] != 0 {
					t.Fatalf("run %d: new word %v has flags %#x, want 0", run, addr, l.flags[w])
				}
				m = &shadowWord{}
				model[addr] = m
				refs[addr] = bound{l, w, ref}
			} else if b := refs[addr]; b != (bound{l, w, ref}) {
				t.Fatalf("run %d: %v moved from %+v to %+v", run, addr, b, bound{l, w, ref})
			}
			li := (ref-1)/shadowLeafWords + 1
			if gl, gw := tab.at(ref); gl != l || gw != w || tab.Base(li)+mem.Addr(w)*mem.WordSize != addr {
				t.Fatalf("run %d: ref %d of %v does not resolve to its word", run, ref, addr)
			}
			switch rng.Intn(4) {
			case 0: // non-transactional store
				l.flags[w] |= shadowUnsafe
				m.flags |= shadowUnsafe
			case 1: // commit promotion
				v := mem.Word(rng.Uint64())
				l.committed[w], m.committed = v, v
				l.flags[w] |= shadowHasCommitted
				m.flags |= shadowHasCommitted
			default: // transactional store: first one records the baseline
				if l.flags[w]&shadowHasBaseline == 0 {
					v := mem.Word(rng.Uint64())
					l.baseline[w], m.baseline = v, v
					l.flags[w] |= shadowHasBaseline
					m.flags |= shadowHasBaseline
				}
			}
		}

		// Every earlier ref still resolves, and lookups agree with the
		// model in both directions.
		for addr, m := range model {
			b := refs[addr]
			if l, w := tab.at(b.ref); l != b.leaf || w != b.w {
				t.Fatalf("run %d: ref of %v no longer resolves to its leaf", run, addr)
			}
			l, w := tab.get(addr)
			if l != b.leaf || w != b.w {
				t.Fatalf("run %d: get(%v) = leaf %p word %d, want %p word %d", run, addr, l, w, b.leaf, b.w)
			}
			if l.flags[w] != m.flags ||
				(m.flags&shadowHasCommitted != 0 && l.committed[w] != m.committed) ||
				(m.flags&shadowHasBaseline != 0 && l.baseline[w] != m.baseline) {
				t.Fatalf("run %d: %v holds flags %#x committed %#x baseline %#x, model %+v",
					run, addr, l.flags[w], l.committed[w], l.baseline[w], *m)
			}
		}
		for i := 0; i < 20000; i++ {
			if addr := next(); model[addr] == nil {
				if l, _ := tab.get(addr); l != nil {
					t.Fatalf("run %d: get(%v) found a word never inserted", run, addr)
				}
			}
		}

		// The sweep is ascending, complete, and skips tainted words.
		var want []mem.Addr
		for addr, m := range model {
			if m.flags&(shadowHasBaseline|shadowUnsafe) == shadowHasBaseline {
				want = append(want, addr)
			}
		}
		slices.Sort(want)
		if got := tab.written(); !slices.Equal(got, want) {
			t.Fatalf("run %d: written returned %d addresses, model wants %d (ascending: %v)",
				run, len(got), len(want), slices.IsSorted(got))
		}

		// reset touches neither the flags nor the values: the next run's
		// first insert into a reused leaf must zero a word's flags.
		n := tab.Len()
		tab.Reset()
		stale := 0
		for ref := int32(1); ref <= int32(n); ref++ {
			if tab.Leaf(ref).flags != [shadowLeafWords]uint8{} {
				stale++
			}
		}
		if stale == 0 {
			t.Fatalf("run %d: reset cleared leaf flags; a reused word's zero flags would go untested", run)
		}
		for addr := range model {
			if l, _ := tab.get(addr); l != nil {
				t.Fatalf("run %d: %v still resolves after reset", run, addr)
			}
		}
		if got := tab.written(); len(got) != 0 {
			t.Fatalf("run %d: written after reset returned %d addresses", run, len(got))
		}
	}
}

// A shadow spread over many chunks is dropped at the recycler's part cap
// instead of pinned, and a small one is pooled. mem's TestRadixFootprint
// holds the footprint count itself.
func TestShadowIndexFootprint(t *testing.T) {
	if s := unsafe.Sizeof(shadowLeaf{}); s != 1096 {
		t.Fatalf("shadowLeaf is %d B, want 1096", s)
	}
	tab := newShadowIndex()
	for c := 0; c < 16; c++ {
		for w := 0; w < 3*shadowLeafWords; w++ {
			tab.getOrInsert(mem.Addr(c)<<22 + mem.Addr(w)*mem.WordSize)
		}
	}
	if tab.Len() != 48 || tab.MemFootprint() < 16*(32<<10)+48*1096 {
		t.Fatalf("%d leaves, footprint %d; want 48 leaves in 16 mids", tab.Len(), tab.MemFootprint())
	}
	r := NewRecycler()
	r.putShadow(tab)
	if len(r.shadows) != 1 {
		t.Fatal("a small shadow was not pooled")
	}

	big := newShadowIndex()
	for c := 0; big.MemFootprint() <= recycleMaxPartBytes; c++ {
		big.getOrInsert(mem.Addr(c) << 22)
	}
	r.putShadow(big)
	if len(r.shadows) != 1 {
		t.Fatalf("a %d B shadow was pooled past the %d B part cap", big.MemFootprint(), recycleMaxPartBytes)
	}
}

// shadowTx runs one transaction's golden-shadow work the way Exec does:
// per store the baseline capture and the pending put, at commit the
// promotion through the pending refs and the per-transaction reset.
func shadowTx(tab *shadowIndex, pend *txWrites, addrs []mem.Addr, v mem.Word) {
	for _, a := range addrs {
		pend.put(a, v, tab.recordTx(a, v-1))
	}
	for _, kv := range pend.entries {
		tab.promote(kv.ref, kv.val)
	}
	pend.reset()
}

// shadowWriteSet is a 64-word write set in bound leaves: 16 consecutive
// words in each of four per-core arenas, as isolated threads write.
func shadowWriteSet() []mem.Addr {
	heap := pmheap.New(mem.DefaultLayout(), 4)
	var addrs []mem.Addr
	for arena := 0; arena < 4; arena++ {
		base := heap.AllocLines(arena, 2)
		for w := 0; w < 16; w++ {
			addrs = append(addrs, base+mem.Addr(w)*mem.WordSize)
		}
	}
	return addrs
}

// Once its leaves are bound, a transaction's shadow work — baseline
// capture, pending tracking, commit promotion — allocates nothing.
func TestShadowSteadyStateZeroAlloc(t *testing.T) {
	tab, pend, addrs := newShadowIndex(), newTxWrites(), shadowWriteSet()
	v := mem.Word(1)
	for ; v < 8; v++ {
		shadowTx(tab, pend, addrs, v) // bind leaves, grow the pending table
	}
	if allocs := testing.AllocsPerRun(200, func() { v++; shadowTx(tab, pend, addrs, v) }); allocs != 0 {
		t.Fatalf("steady-state shadow transaction allocates %v times, want 0", allocs)
	}
	for _, a := range addrs {
		if l, w := tab.get(a); l == nil || l.committed[w] != v || l.baseline[w] != 0 {
			t.Fatalf("%v: shadow does not hold committed %d over baseline 0", a, v)
		}
	}
}

// BenchmarkShadowStore times one 64-store transaction's golden-shadow
// work in bound leaves: 64 baseline checks and pending puts, then 64
// commit promotions.
func BenchmarkShadowStore(b *testing.B) {
	tab, pend, addrs := newShadowIndex(), newTxWrites(), shadowWriteSet()
	v := mem.Word(1)
	for ; v < 8; v++ {
		shadowTx(tab, pend, addrs, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		v++
		shadowTx(tab, pend, addrs, v)
	}
}
