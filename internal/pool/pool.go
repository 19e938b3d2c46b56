// Package pool keeps free lists of the heavy parts short-lived machines
// reuse: PM device tables, golden-shadow indexes, pending-write tables
// and cache arrays.
//
// A List hands its newest part to whichever goroutine asks next, and an
// idle part lives as long as it would in a sync.Pool: the collector
// reclaims it at the second collection after its put. A bare sync.Pool
// is not enough: it keeps the part put last in a slot private to the P
// that put it, and no other P looks there. A goroutine that moved to
// another P between one machine's release and the next machine's build
// missed its parts and built them afresh, so whether a run reused its
// parts, and how far its heap grew, depended on the scheduler.
package pool

import (
	"slices"
	"sync"
	"weak"
)

// List is a last-in first-out free list of *T. The zero List is empty
// and ready to use. It is safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	free []weak.Pointer[T] // oldest first; entries the GC cleared read nil

	// keep holds each put part strongly for the lifetime a sync.Pool
	// gives it. It is never read: the lookup goes through free, which
	// every P sees.
	keep sync.Pool
}

// Get removes and returns the most recently put part still alive, or nil
// when there is none.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := len(l.free); n > 0; n-- {
		p := l.free[n-1].Value()
		l.free = l.free[:n-1]
		if p != nil {
			return p
		}
	}
	return nil
}

// Put adds p for a later Get. The caller must not use p afterwards, and
// must not put the same part twice without a Get in between.
func (l *List[T]) Put(p *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) == cap(l.free) {
		// Drop the entries the GC cleared before growing, so a list that
		// sees more puts than gets stays as long as its live parts.
		l.free = slices.DeleteFunc(l.free, func(w weak.Pointer[T]) bool { return w.Value() == nil })
	}
	l.free = append(l.free, weak.Make(p))
	l.keep.Put(p)
}
