package telemetry

import (
	"slices"
	"sync"
)

// LiveSink is a bounded, drop-counting Sink for live consumers — the
// bridge between the engine goroutine and silo-serve's SSE streams.
//
// Event appends into a producer-side batch of liveBatch events without
// taking a lock. The batch's last slot, Flush or Close publishes the
// batch: one mutex round trip copies it into a fixed-size ring and posts
// one wakeup per subscriber. After Close every event publishes at once.
// Event never blocks on a consumer, never allocates after construction,
// and the ring holds at most Capacity events. Subscribers read published
// events at their own pace through cursors; when the producer laps a
// cursor the overrun events are *dropped for that subscriber* and
// counted — slow consumers lose data loudly instead of stalling the
// simulation.
//
// Event, Flush and Close belong to the engine goroutine, the one Sink
// already requires every event on; Subscribe, Seq, Drops and the LiveSub
// methods may run on any goroutine.
//
// A LiveSink observes the probe stream without touching simulated state,
// so a run with a LiveSink attached produces byte-identical stats.Run
// results to a detached run (see TestLiveSinkDoesNotPerturbRun).
type LiveSink struct {
	// Producer side, touched only by the engine goroutine.
	batch [liveBatch]Event
	nb    int // events pending in batch

	mu     sync.Mutex
	buf    []Event
	seq    uint64     // events ever published; the next lands at buf[seq%cap]
	closed bool       // written only by Close, so Event may read it unlocked
	subs   []*LiveSub // in subscription order; publish wakes each once
	drops  uint64     // total events dropped across all subscribers
}

// liveBatch is how many events Event gathers before it publishes them
// to the ring: one lock and one wakeup per subscriber per batch.
const liveBatch = 64

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

// Event implements Sink. It runs on the engine goroutine and must stay
// cheap: a copy into the batch, and every liveBatch events (every event
// once the sink is closed) one publish.
func (s *LiveSink) Event(e Event) {
	s.batch[s.nb] = e
	s.nb++
	if s.nb == liveBatch || s.closed {
		s.Flush()
	}
}

// Flush publishes the pending batch, if any, to the ring and wakes every
// subscriber. Like Event it runs on the engine goroutine: silo-serve
// flushes before each pacing sleep and after the run returns, so a paced
// dashboard stays live.
func (s *LiveSink) Flush() {
	if s.nb == 0 {
		return
	}
	s.mu.Lock()
	s.publish()
	s.mu.Unlock()
}

// publish copies the pending batch into the ring, leaving it as nb
// single writes would, then posts a non-blocking wakeup to every
// subscriber; s.mu is held.
func (s *LiveSink) publish() {
	b := s.batch[:s.nb]
	s.nb = 0
	for len(b) > 0 {
		k := copy(s.buf[s.seq%uint64(len(s.buf)):], b)
		s.seq += uint64(k)
		b = b[k:]
	}
	for _, sub := range s.subs {
		select {
		case sub.ready <- struct{}{}:
		default:
		}
	}
}

// Close publishes the pending batch, marks the stream finished and
// wakes every subscriber. It runs on the engine goroutine, like Event.
// Events already in the ring stay readable; further Event calls are
// still safe (crash paths may emit after the server decided the run is
// over), publish at once, and remain visible to subscribers that have
// not drained yet.
func (s *LiveSink) Close() {
	s.mu.Lock()
	s.closed = true
	s.publish()
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

// Seq returns the total number of events published so far. Events still
// in the producer's batch are not counted until Flush or Close.
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
