package telemetry

import (
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
	s.Event(Event{Kind: KCrash, A: 9}) // crash paths may emit after Close
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
