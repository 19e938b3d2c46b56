package telemetry

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

func TestLiveSinkDeliversInOrder(t *testing.T) {
	s := NewLiveSink(64)
	sub := s.Subscribe()
	defer sub.Cancel()

	for i := 0; i < 10; i++ {
		s.Event(Event{Cycle: 1, Kind: KTxCommit, A: int64(i)})
	}
	s.Flush()
	out := make([]Event, 32)
	n, dropped, open := sub.Poll(out)
	if n != 10 || dropped != 0 || !open {
		t.Fatalf("Poll = (%d, %d, %v), want (10, 0, true)", n, dropped, open)
	}
	for i := 0; i < 10; i++ {
		if out[i].A != int64(i) {
			t.Fatalf("out[%d].A = %d, want %d", i, out[i].A, i)
		}
	}
	// No new events: Poll is empty but the stream stays open.
	if n, _, open := sub.Poll(out); n != 0 || !open {
		t.Fatalf("idle Poll = (%d, open=%v), want (0, true)", n, open)
	}
	s.Close()
	if _, _, open := sub.Poll(out); open {
		t.Fatal("stream still open after Close and full drain")
	}
}

func TestLiveSinkLapDropsAreCounted(t *testing.T) {
	s := NewLiveSink(16)
	sub := s.Subscribe()
	defer sub.Cancel()

	// Write 40 events into a 16-slot ring: the cursor is lapped and only
	// the newest 16 survive; 24 must be reported dropped.
	for i := 0; i < 40; i++ {
		s.Event(Event{Kind: KWPQWrite, A: int64(i)})
	}
	s.Flush()
	out := make([]Event, 64)
	n, dropped, _ := sub.Poll(out)
	if n != 16 || dropped != 24 {
		t.Fatalf("Poll = (%d, %d), want (16, 24)", n, dropped)
	}
	if out[0].A != 24 || out[15].A != 39 {
		t.Fatalf("survivors = [%d..%d], want [24..39]", out[0].A, out[15].A)
	}
	if sub.Drops() != 24 || s.Drops() != 24 {
		t.Fatalf("drop counters = (sub %d, sink %d), want (24, 24)", sub.Drops(), s.Drops())
	}
}

func TestLiveSinkLateSubscriberStartsAtOldestRetained(t *testing.T) {
	s := NewLiveSink(16)
	for i := 0; i < 30; i++ {
		s.Event(Event{A: int64(i)})
	}
	s.Flush()
	sub := s.Subscribe()
	defer sub.Cancel()
	out := make([]Event, 64)
	n, dropped, _ := sub.Poll(out)
	// Joining late is not a drop: the subscriber starts at the oldest
	// event the ring still holds.
	if n != 16 || dropped != 0 {
		t.Fatalf("Poll = (%d, %d), want (16, 0)", n, dropped)
	}
	if out[0].A != 14 {
		t.Fatalf("oldest retained = %d, want 14", out[0].A)
	}
}

func TestLiveSinkReadyWakesBlockedReader(t *testing.T) {
	s := NewLiveSink(16)
	sub := s.Subscribe()
	defer sub.Cancel()

	got := make(chan int64, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]Event, 4)
		for {
			if n, _, open := sub.Poll(out); n > 0 {
				got <- out[0].A
				return
			} else if !open {
				got <- -1
				return
			}
			<-sub.Ready()
		}
	}()
	s.Event(Event{A: 77})
	s.Flush()
	wg.Wait()
	if v := <-got; v != 77 {
		t.Fatalf("woken reader saw %d, want 77", v)
	}
}

func TestLiveSinkCloseWakesIdleReader(t *testing.T) {
	s := NewLiveSink(16)
	sub := s.Subscribe()
	defer sub.Cancel()
	done := make(chan bool, 1)
	go func() {
		out := make([]Event, 4)
		for {
			n, _, open := sub.Poll(out)
			if !open {
				done <- true
				return
			}
			if n == 0 {
				<-sub.Ready()
			}
		}
	}()
	s.Close()
	if !<-done {
		t.Fatal("reader did not observe close")
	}
}

func TestLiveSinkEventAfterCloseStaysReadable(t *testing.T) {
	s := NewLiveSink(16)
	sub := s.Subscribe()
	defer sub.Cancel()
	s.Close()
	readyToken(sub)
	s.Event(Event{Kind: KCrash, A: 9}) // crash paths may emit after Close
	if !readyToken(sub) {
		t.Fatal("post-close event posted no wakeup")
	}
	out := make([]Event, 4)
	n, _, open := sub.Poll(out)
	if n != 1 || out[0].A != 9 {
		t.Fatalf("post-close event: n=%d", n)
	}
	if open {
		t.Fatal("stream open after close and drain")
	}
	if s.Seq() != 1 {
		t.Fatalf("Seq = %d, want 1", s.Seq())
	}
}

func TestLiveSinkCapacityFloors(t *testing.T) {
	if got := len(NewLiveSink(0).buf); got != DefaultLiveCapacity {
		t.Errorf("capacity(0) = %d, want %d", got, DefaultLiveCapacity)
	}
	if got := len(NewLiveSink(3).buf); got != 16 {
		t.Errorf("capacity(3) = %d, want 16", got)
	}
}

// readyToken reports whether sub holds a wakeup token, taking it.
func readyToken(sub *LiveSub) bool {
	select {
	case <-sub.Ready():
		return true
	default:
		return false
	}
}

// The first liveBatch-1 events stay in the producer's batch: nothing is
// published and nobody is woken. The liveBatch-th publishes the whole
// batch, in order, with a single wakeup token.
func TestLiveSinkBatchPublishesWithOneWakeup(t *testing.T) {
	s := NewLiveSink(256)
	sub := s.Subscribe()
	defer sub.Cancel()
	out := make([]Event, 2*liveBatch)
	for i := 0; i < liveBatch-1; i++ {
		s.Event(Event{A: int64(i)})
	}
	if readyToken(sub) {
		t.Fatal("woken before the batch filled")
	}
	if n, _, _ := sub.Poll(out); n != 0 || s.Seq() != 0 {
		t.Fatalf("partial batch visible: Poll n=%d, Seq=%d", n, s.Seq())
	}
	s.Event(Event{A: liveBatch - 1})
	if !readyToken(sub) {
		t.Fatal("full batch posted no wakeup")
	}
	if readyToken(sub) {
		t.Fatal("more than one wakeup token for one batch")
	}
	n, dropped, open := sub.Poll(out)
	if n != liveBatch || dropped != 0 || !open || s.Seq() != liveBatch {
		t.Fatalf("Poll = (%d, %d, %v), Seq = %d; want (%d, 0, true), %d", n, dropped, open, s.Seq(), liveBatch, liveBatch)
	}
	for i, e := range out[:n] {
		if e.A != int64(i) {
			t.Fatalf("out[%d].A = %d, want %d", i, e.A, i)
		}
	}
}

func TestLiveSinkClosePublishesPartialBatch(t *testing.T) {
	s := NewLiveSink(64)
	sub := s.Subscribe()
	defer sub.Cancel()
	for i := 0; i < 5; i++ {
		s.Event(Event{A: int64(i)})
	}
	s.Close()
	if !readyToken(sub) {
		t.Fatal("Close posted no wakeup")
	}
	out := make([]Event, 16)
	n, _, open := sub.Poll(out)
	if n != 5 || out[0].A != 0 || out[4].A != 4 || s.Seq() != 5 {
		t.Fatalf("after Close: n=%d, Seq=%d, out=%v", n, s.Seq(), out[:n])
	}
	if open {
		t.Fatal("stream open after Close and full drain")
	}
}

// ringModel is the ring as it was before batching: every event written
// to its slot one at a time, the reader lapped per event.
type ringModel struct {
	buf        []Event
	seq, next  uint64
	drops      uint64
	unreleased []Event // written to the sink, not yet published
}

func (m *ringModel) poll(out []Event) (n int, dropped uint64) {
	capacity := uint64(len(m.buf))
	if m.seq > capacity && m.next < m.seq-capacity {
		dropped = m.seq - capacity - m.next
		m.next = m.seq - capacity
		m.drops += dropped
	}
	for n < len(out) && m.next < m.seq {
		out[n] = m.buf[m.next%capacity]
		m.next++
		n++
	}
	return n, dropped
}

// release writes the pending events into the model one by one, as the
// sink publishes them: on the batch's last slot, Flush or Close.
func (m *ringModel) release() {
	for _, e := range m.unreleased {
		m.buf[m.seq%uint64(len(m.buf))] = e
		m.seq++
	}
	m.unreleased = m.unreleased[:0]
}

// Lap drops across batch boundaries match the per-event ring: a 16-slot
// ring (smaller than one batch) and a 100-slot one (not a multiple of
// it), random bursts, flushes and poll sizes, every Poll compared.
func TestLiveSinkBatchLapsMatchPerEventRing(t *testing.T) {
	for _, capacity := range []int{16, 100} {
		rng := rand.New(rand.NewPCG(uint64(capacity), 7))
		s := NewLiveSink(capacity)
		sub := s.Subscribe()
		m := &ringModel{buf: make([]Event, capacity)}
		got, want := make([]Event, 300), make([]Event, 300)
		var a int64
		for step := 0; step < 2000; step++ {
			for k := rng.IntN(150); k > 0; k-- {
				e := Event{Kind: KWPQWrite, A: a}
				a++
				s.Event(e)
				m.unreleased = append(m.unreleased, e)
				if len(m.unreleased) == liveBatch {
					m.release()
				}
			}
			if rng.IntN(3) == 0 {
				s.Flush()
				m.release()
			}
			size := 1 + rng.IntN(len(got))
			n, dropped, _ := sub.Poll(got[:size])
			wn, wdropped := m.poll(want[:size])
			if n != wn || dropped != wdropped || !slices.Equal(got[:n], want[:wn]) {
				t.Fatalf("cap %d step %d: Poll = (%d, %d), per-event ring = (%d, %d)", capacity, step, n, dropped, wn, wdropped)
			}
			if s.Seq() != m.seq {
				t.Fatalf("cap %d step %d: Seq = %d, want %d", capacity, step, s.Seq(), m.seq)
			}
		}
		if m.drops == 0 {
			t.Fatalf("cap %d: the schedule never lapped the reader", capacity)
		}
		if sub.Drops() != m.drops || s.Drops() != m.drops {
			t.Fatalf("cap %d: drops (sub %d, sink %d), want %d", capacity, sub.Drops(), s.Drops(), m.drops)
		}
		sub.Cancel()
	}
}

// A producer racing one Poll-then-Ready drainer (run under -race): the
// drainer sees a strictly increasing stream whose gaps are exactly the
// drops it was told about, and received + dropped equals written.
func TestLiveSinkProducerDrainerStress(t *testing.T) {
	const events = 200_000
	s := NewLiveSink(256)
	sub := s.Subscribe()
	defer sub.Cancel()
	var received, dropped uint64
	var bad string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]Event, 100)
		last := int64(-1)
		for {
			n, d, open := sub.Poll(out)
			dropped += d
			for i, e := range out[:n] {
				gap := uint64(0)
				if i == 0 {
					gap = d
				}
				if e.A != last+1+int64(gap) && bad == "" {
					bad = fmt.Sprintf("event %d follows %d with %d dropped", e.A, last, gap)
				}
				last = e.A
			}
			received += uint64(n)
			if !open {
				return
			}
			if n == 0 {
				<-sub.Ready()
			}
		}
	}()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < events; i++ {
		s.Event(Event{Kind: KTxCommit, A: int64(i)})
		if rng.IntN(500) == 0 {
			s.Flush()
		}
	}
	s.Close()
	wg.Wait()
	if bad != "" {
		t.Fatal(bad)
	}
	if received+dropped != events || s.Seq() != events {
		t.Fatalf("received %d + dropped %d != written %d (Seq %d)", received, dropped, events, s.Seq())
	}
	t.Logf("received %d, dropped %d", received, dropped)
	if sub.Drops() != dropped || s.Drops() != dropped {
		t.Fatalf("drop counters (sub %d, sink %d), Poll reported %d", sub.Drops(), s.Drops(), dropped)
	}
}

// Event allocates nothing, batch publishes and wakeups included.
func TestLiveSinkEventZeroAlloc(t *testing.T) {
	s := NewLiveSink(1024)
	sub := s.Subscribe()
	defer sub.Cancel()
	e := Event{Cycle: 1, Kind: KWPQWrite, A: 3}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 3*liveBatch; i++ {
			s.Event(e)
		}
		s.Flush()
	}); allocs != 0 {
		t.Fatalf("Event allocated %.1f times per %d events", allocs, 3*liveBatch)
	}
}

// BenchmarkLiveSinkEvent measures the per-event cost the engine pays
// with a LiveSink attached (no subscriber / one idle subscriber) — the
// serve-overhead numbers quoted in EXPERIMENTS.md.
func BenchmarkLiveSinkEvent(b *testing.B) {
	b.Run("no-subscriber", func(b *testing.B) {
		s := NewLiveSink(8192)
		e := Event{Cycle: 1, Kind: KWPQWrite, A: 3}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Event(e)
		}
	})
	b.Run("idle-subscriber", func(b *testing.B) {
		s := NewLiveSink(8192)
		sub := s.Subscribe()
		defer sub.Cancel()
		e := Event{Cycle: 1, Kind: KWPQWrite, A: 3}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Event(e)
		}
	})
}

// Event fans out to every subscriber while one of them unsubscribes
// mid-stream from its own goroutine: the others still read every event
// in order, the cancelled one stops being woken and leaves the
// subscriber list, and a second Cancel is harmless.
func TestLiveSinkFanOutWithMidStreamCancel(t *testing.T) {
	const events, readers, quitter = 5000, 4, 1
	s := NewLiveSink(8192) // holds the whole stream: no reader is lapped
	subs := make([]*LiveSub, readers)
	for i := range subs {
		subs[i] = s.Subscribe()
	}
	seen := make([][]int64, readers)
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]Event, 64)
			for {
				n, _, open := sub.Poll(out)
				for _, e := range out[:n] {
					seen[i] = append(seen[i], e.A)
					if i == quitter && e.A == events/3 {
						sub.Cancel()
						return
					}
				}
				if !open {
					return
				}
				if n < len(out) {
					<-sub.Ready() // drained: wait for the next wakeup
				}
			}
		}()
	}
	for i := 0; i < events; i++ {
		s.Event(Event{Kind: KTxCommit, A: int64(i)})
	}
	s.Close()
	wg.Wait()

	for i, got := range seen {
		want := events
		if i == quitter {
			want = events/3 + 1
		}
		if len(got) != want {
			t.Fatalf("reader %d saw %d events, want %d", i, len(got), want)
		}
		for k, a := range got {
			if a != int64(k) {
				t.Fatalf("reader %d event %d is %d, want %d", i, k, a, k)
			}
		}
	}
	if s.Drops() != 0 {
		t.Fatalf("%d events dropped from a ring that holds the stream", s.Drops())
	}
	subs[quitter].Cancel()
	s.mu.Lock()
	left := slices.Clone(s.subs)
	s.mu.Unlock()
	if len(left) != readers-1 || slices.Contains(left, subs[quitter]) {
		t.Fatalf("after cancel the sink holds %d subscribers (quitter present: %v), want %d without it",
			len(left), slices.Contains(left, subs[quitter]), readers-1)
	}
	for _, sub := range subs {
		sub.Cancel()
	}
	if len(s.subs) != 0 {
		t.Fatalf("%d subscribers left after every Cancel", len(s.subs))
	}
}
