package pm

import (
	"math/rand"
	"testing"

	"silo/internal/mem"
)

// The media table keeps entries in fixed pages: growth rehashes only the
// slot array, so entry pointers survive it, iteration follows insertion
// order, and a reset table reuses its pages but hands out zeroed entries.
func TestMediaTablePaged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newMediaTable()
	ref := map[mem.Addr]int64{} // line -> wear, the reference model
	var order []mem.Addr
	randLine := func() mem.Addr { return mem.Addr(rng.Int63n(1<<24)) * mem.LineSize }

	first := randLine()
	p := tab.getOrInsert(first)
	p.wear = 1
	ref[first], order = 1, append(order, first)
	slots0 := len(tab.slots)

	// Several pages and at least two slot grows.
	for tab.n < 4*mediaPageSize+37 {
		line := randLine()
		if rng.Intn(4) == 0 && len(order) > 0 {
			line = order[rng.Intn(len(order))] // re-probe an existing line
		}
		e := tab.getOrInsert(line)
		if _, ok := ref[line]; !ok {
			if e.wear != 0 || e.line != line {
				t.Fatalf("new entry for %v not fresh: %+v", line, e.wear)
			}
			order = append(order, line)
		}
		e.wear++
		e.data[0] = byte(e.wear)
		ref[line] = e.wear
	}
	if len(tab.slots) < 4*slots0 || len(tab.pages) != 5 {
		t.Fatalf("want >= 2 grows and 5 pages, got %d slots (from %d), %d pages", len(tab.slots), slots0, len(tab.pages))
	}

	// The pointer taken before every grow still aliases the live entry.
	if tab.get(first) != p {
		t.Fatal("entry pointer taken before grow no longer resolves to the entry")
	}
	p.wear += 100
	ref[first] += 100
	if got := tab.get(first).wear; got != ref[first] {
		t.Fatalf("write through old pointer not visible: wear %d, want %d", got, ref[first])
	}

	// Lookups agree with the map; iteration runs in insertion order.
	if tab.n != len(ref) {
		t.Fatalf("len %d, reference holds %d", tab.n, len(ref))
	}
	for line, wear := range ref {
		if e := tab.get(line); e == nil || e.wear != wear || e.line != line {
			t.Fatalf("get(%v) = %+v, want wear %d", line, e, wear)
		}
	}
	for i := 0; i < 1000; i++ {
		if line := randLine(); tab.get(line) != nil && ref[line] == 0 {
			t.Fatalf("get(%v) found a line never inserted", line)
		}
	}
	for i, line := range order {
		if got := tab.at(int32(i + 1)).line; got != line {
			t.Fatalf("ref %d holds %v, want insertion-order %v", i+1, got, line)
		}
	}

	// After reset every lookup misses and reinserted entries are zeroed,
	// although the reused pages still hold the previous run's bytes.
	page0 := tab.pages[0]
	tab.reset()
	if tab.n != 0 || tab.get(first) != nil {
		t.Fatal("reset table still resolves lines")
	}
	for i := len(order) - 1; i >= len(order)-2*mediaPageSize; i-- {
		e := tab.getOrInsert(order[i])
		if e.line != order[i] || e.wear != 0 || e.data != [mem.LineSize]byte{} {
			t.Fatalf("reinserted %v after reset is not zeroed: wear %d data[0] %d", order[i], e.wear, e.data[0])
		}
	}
	if tab.pages[0] != page0 || len(tab.pages) != 5 {
		t.Fatal("reset dropped pages instead of reusing them")
	}
}
