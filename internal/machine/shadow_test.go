package machine

import (
	"math/rand"
	"testing"

	"silo/internal/mem"
)

// The golden-shadow table keeps entries in fixed pages: growth rehashes
// only the slot array, so entry pointers and refs survive it, iteration
// follows insertion order, and a reset table reuses its pages but hands
// out zeroed entries.
func TestShadowTablePaged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newShadowTable()
	ref := map[mem.Addr]mem.Word{} // addr -> committed, the reference model
	refs := map[mem.Addr]int32{}
	var order []mem.Addr
	randAddr := func() mem.Addr { return mem.Addr(rng.Int63n(1<<26)) * mem.WordSize }

	first := randAddr()
	p, pref := tab.getOrInsert(first)
	p.committed = 1
	ref[first], refs[first], order = 1, pref, append(order, first)
	slots0 := len(tab.slots)

	// Several pages and at least two slot grows.
	for tab.n < 4*shadowPageSize+37 {
		addr := randAddr()
		if rng.Intn(4) == 0 {
			addr = order[rng.Intn(len(order))] // re-probe an existing word
		}
		e, r := tab.getOrInsert(addr)
		if old, ok := refs[addr]; ok {
			if r != old {
				t.Fatalf("ref of %v changed from %d to %d", addr, old, r)
			}
		} else {
			if *e != (shadowEntry{addr: addr}) {
				t.Fatalf("new entry for %v not fresh: %+v", addr, *e)
			}
			refs[addr] = r
			order = append(order, addr)
		}
		if tab.at(r) != e {
			t.Fatalf("at(%d) does not resolve to the entry getOrInsert returned", r)
		}
		e.committed++
		e.flags |= shadowHasCommitted
		ref[addr] = e.committed
	}
	if len(tab.slots) < 4*slots0 || len(tab.pages) != 5 {
		t.Fatalf("want >= 2 grows and 5 pages, got %d slots (from %d), %d pages", len(tab.slots), slots0, len(tab.pages))
	}

	// The pointer and ref taken before every grow still alias the entry.
	if tab.get(first) != p || tab.at(pref) != p {
		t.Fatal("entry pointer or ref taken before grow no longer resolves to the entry")
	}
	p.committed += 100
	ref[first] += 100
	if got := tab.get(first).committed; got != ref[first] {
		t.Fatalf("write through old pointer not visible: %d, want %d", got, ref[first])
	}

	// Lookups agree with the map; iteration runs in insertion order.
	if tab.n != len(ref) {
		t.Fatalf("n %d, reference holds %d", tab.n, len(ref))
	}
	for addr, c := range ref {
		if e := tab.get(addr); e == nil || e.committed != c || e.addr != addr {
			t.Fatalf("get(%v) = %+v, want committed %d", addr, e, c)
		}
	}
	for i := 0; i < 1000; i++ {
		if addr := randAddr(); tab.get(addr) != nil && refs[addr] == 0 {
			t.Fatalf("get(%v) found a word never inserted", addr)
		}
	}
	for i, addr := range order {
		if got := tab.at(int32(i + 1)).addr; got != addr {
			t.Fatalf("ref %d holds %v, want insertion-order %v", i+1, got, addr)
		}
	}

	// After reset every lookup misses and reinserted entries are zeroed,
	// although the reused pages still hold the previous run's values.
	page0 := tab.pages[0]
	tab.reset()
	if tab.n != 0 || tab.get(first) != nil {
		t.Fatal("reset table still resolves words")
	}
	for i := len(order) - 1; i >= len(order)-2*shadowPageSize; i-- {
		if e, _ := tab.getOrInsert(order[i]); *e != (shadowEntry{addr: order[i]}) {
			t.Fatalf("reinserted %v after reset is not zeroed: %+v", order[i], *e)
		}
	}
	if tab.pages[0] != page0 || len(tab.pages) != 5 {
		t.Fatal("reset dropped pages instead of reusing them")
	}
}
