package telemetry

import (
	"slices"
	"sync"
)

// LiveSink is a bounded, drop-counting Sink for live consumers — the
// bridge between the engine goroutine and silo-serve's SSE streams.
//
// Event appends into a fixed-size ring under a mutex and returns: it
// never blocks on a consumer, never allocates after construction, and
// holds at most Capacity events. Subscribers read at their own pace
// through cursors; when the producer laps a cursor the overrun events
// are *dropped for that subscriber* and counted — slow consumers lose
// data loudly instead of stalling the simulation.
//
// A LiveSink observes the probe stream without touching simulated state,
// so a run with a LiveSink attached produces byte-identical stats.Run
// results to a detached run (see TestLiveSinkDoesNotPerturbRun).
type LiveSink struct {
	mu     sync.Mutex
	buf    []Event
	seq    uint64 // events ever written; next write lands at buf[seq%cap]
	closed bool
	subs   []*LiveSub // in subscription order; Event walks it per event
	drops  uint64     // total events dropped across all subscribers
}

// DefaultLiveCapacity is the ring size when NewLiveSink is given 0.
const DefaultLiveCapacity = 8192

// NewLiveSink builds a live sink with the given ring capacity
// (0 → DefaultLiveCapacity, minimum 16).
func NewLiveSink(capacity int) *LiveSink {
	if capacity <= 0 {
		capacity = DefaultLiveCapacity
	}
	if capacity < 16 {
		capacity = 16
	}
	return &LiveSink{buf: make([]Event, capacity)}
}

// Event implements Sink. It is called on the engine goroutine and must
// stay cheap: one mutex round trip, one ring-slot copy, one non-blocking
// wakeup per subscriber.
func (s *LiveSink) Event(e Event) {
	s.mu.Lock()
	s.buf[s.seq%uint64(len(s.buf))] = e
	s.seq++
	s.wakeAll()
	s.mu.Unlock()
}

// wakeAll posts a non-blocking wakeup to every subscriber; s.mu is held.
func (s *LiveSink) wakeAll() {
	for _, sub := range s.subs {
		select {
		case sub.ready <- struct{}{}:
		default:
		}
	}
}

// Close marks the stream finished and wakes every subscriber. Events
// already in the ring stay readable; further Event calls are still safe
// (crash paths may emit after the server decided the run is over) and
// remain visible to subscribers that have not drained yet.
func (s *LiveSink) Close() {
	s.mu.Lock()
	s.closed = true
	s.wakeAll()
	s.mu.Unlock()
}

// Drops returns the total number of events dropped across all
// subscribers so far (a subscriber that unsubscribes keeps its
// contribution).
func (s *LiveSink) Drops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Seq returns the total number of events written so far.
func (s *LiveSink) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Subscribe registers a new reader positioned at the oldest event still
// in the ring (or live tail for an empty ring). Call LiveSub.Cancel when
// done.
func (s *LiveSink) Subscribe() *LiveSub {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub := &LiveSub{sink: s, next: 0, ready: make(chan struct{}, 1)}
	if n := uint64(len(s.buf)); s.seq > n {
		sub.next = s.seq - n
	}
	s.subs = append(s.subs, sub)
	if s.seq > sub.next || s.closed {
		sub.ready <- struct{}{}
	}
	return sub
}

// LiveSub is one subscriber's cursor into a LiveSink.
type LiveSub struct {
	sink  *LiveSink
	next  uint64
	drops uint64
	ready chan struct{}
}

// Poll copies pending events into out and advances the cursor. It
// returns the number of events copied, how many events this call had to
// skip because the producer lapped the cursor, and whether the stream
// can still produce more (false only once the sink is closed *and* the
// cursor has drained it). It never blocks.
func (sub *LiveSub) Poll(out []Event) (n int, dropped uint64, open bool) {
	s := sub.sink
	s.mu.Lock()
	defer s.mu.Unlock()
	capacity := uint64(len(s.buf))
	if s.seq > capacity && sub.next < s.seq-capacity {
		dropped = s.seq - capacity - sub.next
		sub.next = s.seq - capacity
		sub.drops += dropped
		s.drops += dropped
	}
	for n < len(out) && sub.next < s.seq {
		out[n] = s.buf[sub.next%capacity]
		sub.next++
		n++
	}
	open = !s.closed || sub.next < s.seq
	return n, dropped, open
}

// Ready returns a channel that receives (capacity 1, never closed) when
// new events may be available or the sink closes. The loop is
// Poll-then-wait: drain with Poll, block on Ready, Poll again — the
// buffered token makes the wakeup race-free.
func (sub *LiveSub) Ready() <-chan struct{} { return sub.ready }

// Drops returns the events this subscriber has skipped so far.
func (sub *LiveSub) Drops() uint64 {
	s := sub.sink
	s.mu.Lock()
	defer s.mu.Unlock()
	return sub.drops
}

// Cancel unregisters the subscriber. A second Cancel does nothing.
func (sub *LiveSub) Cancel() {
	s := sub.sink
	s.mu.Lock()
	if i := slices.Index(s.subs, sub); i >= 0 {
		s.subs = slices.Delete(s.subs, i, i+1)
	}
	s.mu.Unlock()
}
