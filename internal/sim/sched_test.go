package sim

import (
	"math/rand"
	"testing"
)

// scanPick is the earliest-core scan Step used before the branch-free
// pick: skip cores holding no fetched op, keep the first strictly
// earlier one. best is -1 when no core holds an op.
func scanPick(ok []bool, coreTime []Cycle) (best int, bt Cycle) {
	best = -1
	for i := range ok {
		if !ok[i] {
			continue
		}
		if best == -1 || coreTime[i] < bt {
			best, bt = i, coreTime[i]
		}
	}
	return best, bt
}

// The branch-free pick must choose exactly what the branchy scan chose:
// the same core (lowest index on ties) at the same time, and "no core"
// exactly when every core is retired — core 0 included, whose due time
// seeds the scan.
func TestPickMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(9)
		ok := make([]bool, n)
		coreTime := make([]Cycle, n)
		e := &Engine{due: make([]Cycle, n)}
		liveP := []int{0, 1, 2, 4}[trial%4] // 0: every core retired
		for i := range ok {
			switch rng.Intn(3) {
			case 0:
				coreTime[i] = Cycle(rng.Intn(4)) // dense ties
			case 1:
				coreTime[i] = Cycle(rng.Int63n(1 << 40))
			default:
				coreTime[i] = retired - 1 - Cycle(rng.Intn(3)) // near the sentinel
			}
			ok[i] = liveP > 0 && rng.Intn(liveP+1) != 0
			if ok[i] {
				e.due[i] = coreTime[i]
			} else {
				e.due[i] = retired
			}
		}
		wantBest, wantT := scanPick(ok, coreTime)
		best, bt := e.pick()
		if wantBest == -1 {
			if bt != retired {
				t.Fatalf("trial %d: no live core (ok=%v) but pick returned core %d at %d", trial, ok, best, bt)
			}
			continue
		}
		if best != wantBest || bt != wantT {
			t.Fatalf("trial %d: pick = core %d at %d, scan = core %d at %d (ok=%v times=%v)",
				trial, best, bt, wantBest, wantT, ok, coreTime)
		}
	}
	if _, bt := (&Engine{}).pick(); bt != retired {
		t.Fatal("an unbound engine has a core due")
	}
}

// computeStream issues a fixed list of Compute ops; the cycles double as
// the op's latency under recordingExec, so ties between cores are common.
type computeStream struct {
	cycles []Cycle
	i      int
}

func (s *computeStream) Next() (Op, bool) {
	if s.i == len(s.cycles) {
		return Op{}, false
	}
	s.i++
	return Op{Kind: OpCompute, Cycles: s.cycles[s.i-1]}, true
}

func (s *computeStream) Deliver(Result) {}

// Step driven end to end must execute ops in the order the branchy scan
// over (fetched, coreTime) slots would, at the same times, and return
// false exactly once every stream is exhausted — including streams that
// are empty from the start (core 0 among them) and runs where every
// stream is.
func TestStepMatchesScanSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(6)
		progs := make([][]Cycle, n)
		for i := range progs {
			if rng.Intn(4) == 0 {
				continue // empty stream: retired at Bind
			}
			progs[i] = make([]Cycle, rng.Intn(40))
			for j := range progs[i] {
				progs[i][j] = Cycle(rng.Intn(3))
			}
		}

		// Reference: the old scheduler over explicit slots.
		type exec struct {
			core int
			now  Cycle
		}
		var want []exec
		ok := make([]bool, n)
		next := make([]int, n)
		coreTime := make([]Cycle, n)
		for i := range ok {
			ok[i] = len(progs[i]) > 0
		}
		for {
			best, bt := scanPick(ok, coreTime)
			if best == -1 {
				break
			}
			want = append(want, exec{best, bt})
			coreTime[best] = bt + progs[best][next[best]]
			next[best]++
			ok[best] = next[best] < len(progs[best])
		}

		rec := &recordingExec{}
		e := NewEngine(rec, n, 1)
		streams := make([]OpStream, n)
		for i := range streams {
			streams[i] = &computeStream{cycles: progs[i]}
		}
		e.Bind(streams)
		steps := 0
		for e.Step() {
			steps++
		}
		if steps != len(want) || len(rec.ops) != len(want) {
			t.Fatalf("trial %d: %d steps, %d executed, reference executes %d", trial, steps, len(rec.ops), len(want))
		}
		for k, w := range want {
			if got := rec.ops[k]; got.core != w.core || got.now != w.now {
				t.Fatalf("trial %d op %d: core %d at %d, reference core %d at %d", trial, k, got.core, got.now, w.core, w.now)
			}
		}
		if e.Step() {
			t.Fatalf("trial %d: Step returned true after every stream was exhausted", trial)
		}
		for i := range coreTime {
			if e.CoreTime(i) != coreTime[i] {
				t.Fatalf("trial %d: core %d clock %d, reference %d", trial, i, e.CoreTime(i), coreTime[i])
			}
		}
	}
}
