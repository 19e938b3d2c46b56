package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestServiceQueueUnloaded(t *testing.T) {
	q := NewServiceQueue(4)
	a, f := q.Accept(100, 10)
	if a != 100 {
		t.Errorf("unloaded acceptance should be immediate: got %d", a)
	}
	if f != 110 {
		t.Errorf("finish = %d, want 110", f)
	}
}

func TestServiceQueueSerialDrain(t *testing.T) {
	q := NewServiceQueue(16)
	// Three simultaneous arrivals drain back to back.
	var finishes []Cycle
	for i := 0; i < 3; i++ {
		_, f := q.Accept(0, 10)
		finishes = append(finishes, f)
	}
	want := []Cycle{10, 20, 30}
	for i := range want {
		if finishes[i] != want[i] {
			t.Errorf("finish[%d] = %d, want %d", i, finishes[i], want[i])
		}
	}
}

func TestServiceQueueBackpressure(t *testing.T) {
	q := NewServiceQueue(2)
	q.Accept(0, 100) // finishes 100
	q.Accept(0, 100) // finishes 200
	// Queue full: third entry can only be accepted when the first drains.
	a, f := q.Accept(0, 100)
	if a != 100 {
		t.Errorf("acceptance under backpressure = %d, want 100", a)
	}
	if f != 300 {
		t.Errorf("finish = %d, want 300", f)
	}
}

func TestServiceQueueIdleGap(t *testing.T) {
	q := NewServiceQueue(4)
	q.Accept(0, 10)
	a, f := q.Accept(1000, 10)
	if a != 1000 || f != 1010 {
		t.Errorf("idle-gap entry: accept=%d finish=%d, want 1000/1010", a, f)
	}
}

func TestServiceQueueOccupancy(t *testing.T) {
	q := NewServiceQueue(8)
	q.Accept(0, 100)
	q.Accept(0, 100)
	if got := q.Occupancy(50); got != 2 {
		t.Errorf("occupancy(50) = %d, want 2", got)
	}
	if got := q.Occupancy(150); got != 1 {
		t.Errorf("occupancy(150) = %d, want 1", got)
	}
	if got := q.Occupancy(500); got != 0 {
		t.Errorf("occupancy(500) = %d, want 0", got)
	}
}

func TestServiceQueueDrainedBy(t *testing.T) {
	q := NewServiceQueue(4)
	q.Accept(0, 10) // drains at 10
	q.Accept(5, 10) // server busy until 10, drains at 20
	if got := q.DrainedBy(); got != 20 {
		t.Errorf("DrainedBy = %d, want 20", got)
	}
	if q.Accepted() != 2 {
		t.Errorf("Accepted = %d, want 2", q.Accepted())
	}
}

func TestServiceQueueMinCapacity(t *testing.T) {
	q := NewServiceQueue(0)
	if q.Capacity() != 1 {
		t.Errorf("capacity clamped to %d, want 1", q.Capacity())
	}
	a1, _ := q.Accept(0, 50)
	a2, _ := q.Accept(0, 50)
	if a1 != 0 || a2 != 50 {
		t.Errorf("single-slot queue: accepts %d,%d want 0,50", a1, a2)
	}
}

// Properties: with monotone arrivals, acceptance and finish times are
// monotone, acceptance never precedes arrival, and finish covers service.
func TestServiceQueueProperties(t *testing.T) {
	f := func(capRaw uint8, gaps []uint16, services []uint16) bool {
		q := NewServiceQueue(int(capRaw%16) + 1)
		n := len(gaps)
		if len(services) < n {
			n = len(services)
		}
		var now, lastAccept, lastFinish Cycle
		for i := 0; i < n; i++ {
			now += Cycle(gaps[i] % 500)
			s := Cycle(services[i]%100) + 1
			a, fin := q.Accept(now, s)
			if a < now || a < lastAccept {
				return false
			}
			if fin < a+s || fin < lastFinish {
				return false
			}
			lastAccept, lastFinish = a, fin
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// linearOccupancy is Occupancy's definition: the ring slots whose finish
// time exceeds t.
func linearOccupancy(q *ServiceQueue, t Cycle) int {
	n := 0
	for _, f := range q.ring {
		if f > t {
			n++
		}
	}
	return n
}

// Occupancy binary-searches the ring on the strength of finish times
// never decreasing; it must agree with the linear count at every kind of
// query point — before, at, between and after finish times, across ring
// wrap-around, full-queue waits, zero-length services, and a Reset.
func TestServiceQueueOccupancyMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(q *ServiceQueue, tq Cycle) {
		t.Helper()
		if got, want := q.Occupancy(tq), linearOccupancy(q, tq); got != want {
			t.Fatalf("capacity %d head %d ring %v: Occupancy(%d) = %d, linear count %d",
				q.capacity, q.head, q.ring, tq, got, want)
		}
	}
	probe := func(q *ServiceQueue, arrival Cycle) {
		t.Helper()
		check(q, 0)
		check(q, arrival)
		check(q, q.last+1)
		for _, f := range q.ring {
			check(q, f-1)
			check(q, f)
			check(q, f+1)
		}
	}
	for capacity := 1; capacity <= 70; capacity++ {
		q := NewServiceQueue(capacity)
		now := Cycle(0)
		for round := 0; round < 2; round++ {
			for i := 0; i < 3*capacity+5; i++ {
				// Bursts of simultaneous arrivals fill the queue and force
				// full-queue waits; idle gaps let it drain.
				switch rng.Intn(4) {
				case 0:
					now += Cycle(rng.Intn(200))
				case 1:
					now += Cycle(rng.Intn(5))
				}
				service := Cycle(rng.Intn(40))
				if rng.Intn(5) == 0 {
					service = 0
				}
				q.Accept(now, service)
				probe(q, now)
			}
			q.Reset()
			now = 0
			probe(q, 0)
		}
	}
}
