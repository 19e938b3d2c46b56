package pool

import (
	"runtime"
	"sync"
	"testing"
)

type part struct{ buf [64]byte }

// Get returns parts newest first, then nil.
func TestListLastInFirstOut(t *testing.T) {
	var l List[part]
	if l.Get() != nil {
		t.Fatal("an empty list returned a part")
	}
	a, b := new(part), new(part)
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatalf("first Get = %p, want the newest part %p", got, b)
	}
	if got := l.Get(); got != a {
		t.Fatalf("second Get = %p, want %p", got, a)
	}
	if l.Get() != nil {
		t.Fatal("a drained list returned a part")
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}

// A part put on one goroutine is found by a Get on any other, whichever
// P each ran on: the list has no per-P slots.
func TestListHandsPartsAcrossGoroutines(t *testing.T) {
	var l List[part]
	for i := 0; i < 100; i++ {
		p := new(part)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Put(p)
		}()
		wg.Wait()
		if got := l.Get(); got != p {
			t.Fatalf("round %d: Get = %p, want the part another goroutine put, %p", i, got, p)
		}
	}
}

// An idle part outlives one collection, as in a sync.Pool, and is the
// collector's at the second: Get then skips its entry. A list with more
// puts than gets does not grow far past its live parts.
func TestListLetsTheCollectorReclaimIdleParts(t *testing.T) {
	var l List[part]
	for i := 0; i < 100; i++ {
		l.Put(new(part))
	}
	runtime.GC()
	// The race detector makes sync.Pool drop some puts on purpose, so
	// only insist that not every part died at the first collection.
	if l.Get() == nil {
		t.Fatal("every idle part died at the first collection after its put")
	}
	runtime.GC()
	runtime.GC()
	if p := l.Get(); p != nil {
		t.Fatal("Get returned a part no one referred to across two collections")
	}
	if len(l.free) != 0 {
		t.Fatalf("Get left %d dead entries", len(l.free))
	}

	for i := 0; i < 1000; i++ {
		l.Put(new(part))
		if i%100 == 99 {
			runtime.GC()
		}
	}
	if n := len(l.free); n > 300 {
		t.Errorf("list holds %d entries after 1000 puts with a GC every 100, want at most 300", n)
	}
}
