package pm

import (
	"math/rand"
	"testing"

	"silo/internal/mem"
)

// mediaLine is the reference model's record of one media line.
type mediaLine struct {
	wear int64
	data [mem.LineSize]byte
}

// The media table must behave as a map from line to (bytes, wear), in
// the data region and in the log region around LogBase, across reset
// and reuse: entry pointers survive later inserts, iteration (refs
// 1..n) follows insertion order, and a reset table reuses its pages but
// hands out zeroed entries.
func TestMediaTablePaged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layout := mem.DefaultLayout()
	randLine := func() mem.Addr {
		switch rng.Intn(4) {
		case 0: // the log region and the data just below it
			return layout.LogBase - 64<<10 + mem.Addr(rng.Intn(2<<10))*mem.LineSize
		case 1: // sparse lines spread over 1 GB, as Hash touches its buckets
			return mem.Addr(rng.Int63n(1<<24)) * mem.LineSize
		default: // a dense arena
			return 4096 + mem.Addr(rng.Intn(16<<10))*mem.LineSize
		}
	}

	tab := &mediaTable{}
	var pages []*[mediaPageSize]mediaEntry
	for run := 0; run < 3; run++ {
		model := map[mem.Addr]*mediaLine{}
		ptrs := map[mem.Addr]*mediaEntry{}
		var order []mem.Addr
		for op := 0; op < 30000; op++ {
			line := randLine()
			if rng.Intn(4) == 0 && len(order) > 0 {
				line = order[rng.Intn(len(order))] // revisit an existing line
			}
			var e *mediaEntry
			if rng.Intn(2) == 0 {
				if e = tab.get(line); (e != nil) != (model[line] != nil) {
					t.Fatalf("run %d: get(%v) = %v, model has it %v", run, line, e != nil, model[line] != nil)
				}
				if e == nil {
					continue
				}
			} else {
				e = tab.getOrInsert(line)
			}
			m := model[line]
			if m == nil {
				if e.line != line || e.wear != 0 || e.data != [mem.LineSize]byte{} {
					t.Fatalf("run %d: new entry for %v is not zeroed: wear %d data[0] %d", run, line, e.wear, e.data[0])
				}
				m = &mediaLine{}
				model[line], ptrs[line] = m, e
				order = append(order, line)
			} else if ptrs[line] != e {
				t.Fatalf("run %d: entry of %v moved", run, line)
			}
			e.wear++
			e.data[rng.Intn(mem.LineSize)] = byte(rng.Intn(256))
			m.wear, m.data = e.wear, e.data
		}

		// Lookups agree with the model; iteration is insertion order.
		if tab.n != len(model) || tab.n < 3*mediaPageSize {
			t.Fatalf("run %d: %d entries, model holds %d; the test wants several pages", run, tab.n, len(model))
		}
		for line, m := range model {
			if e := tab.get(line); e != ptrs[line] || e.line != line || e.wear != m.wear || e.data != m.data {
				t.Fatalf("run %d: get(%v) does not match the model (wear %d)", run, line, m.wear)
			}
		}
		for i, line := range order {
			if got := tab.at(int32(i + 1)).line; got != line {
				t.Fatalf("run %d: ref %d holds %v, want insertion-order %v", run, i+1, got, line)
			}
		}

		// Reset keeps the pages; every line misses afterwards.
		if run > 0 && (len(tab.pages) < len(pages) || tab.pages[0] != pages[0]) {
			t.Fatalf("run %d: the table dropped the pages of the run before", run)
		}
		pages = append(pages[:0], tab.pages...)
		tab.reset()
		if tab.n != 0 {
			t.Fatalf("run %d: %d entries after reset", run, tab.n)
		}
		for line := range model {
			if tab.get(line) != nil {
				t.Fatalf("run %d: %v still resolves after reset", run, line)
			}
		}
	}
}
