package core

import (
	"fmt"
	"testing"

	"silo/internal/cache"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/recovery"
	"silo/internal/sim"
)

// TestSiloProtocolExhaustive model-checks the Silo protocol at small
// scale: it enumerates EVERY sequence (up to a depth) over an op alphabet
// of stores to two words, a mid-transaction cacheline eviction, and
// commit — then crashes at the end of each sequence, runs recovery, and
// checks atomic durability against a golden model. Unlike the randomized
// crash tests, this covers all interleavings of merge, flush-bit,
// committed-pending and recovery interactions in its (small) universe.
func TestSiloProtocolExhaustive(t *testing.T) {
	const depth = 6
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}

	type opKind int
	const (
		opStoreA1 opKind = iota // A = 1
		opStoreA2               // A = 2
		opStoreB1               // B = 1
		opEvictA                // the cacheline holding A is evicted
		opCommit                // Tx_end; the next store opens a new tx
		opCount
	)
	wordA := mem.Addr(0x10000)
	wordB := mem.Addr(0x10040) // different cacheline

	// Use a tiny buffer so the enumeration also reaches overflow.
	run := func(seq []opKind) error {
		dev := pm.New(pm.DefaultConfig())
		small := cache.HierarchyConfig{
			L1: cache.Config{Name: "L1", Size: 512, Ways: 2, Latency: 4},
			L2: cache.Config{Name: "L2", Size: 1024, Ways: 2, Latency: 12},
			L3: cache.Config{Name: "L3", Size: 2048, Ways: 2, Latency: 28},
		}
		var s *Silo
		fill := func(la mem.Addr, now sim.Cycle, dst *[mem.LineSize]byte) sim.Cycle {
			copy(dst[:], dev.Peek(la, mem.LineSize))
			return 100
		}
		wb := func(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
			s.CachelineEvicted(now, la, data)
		}
		env := &logging.Env{
			PM:            dev,
			Cache:         cache.NewHierarchy(1, small, fill, wb),
			Region:        logging.NewRegionWriter(dev, 1),
			Cores:         1,
			LogBufEntries: 2, // overflow reachable within the depth
		}
		s = New(env, Options{})

		// Golden model.
		committed := map[mem.Addr]mem.Word{wordA: 0, wordB: 0}
		pending := map[mem.Addr]mem.Word{}
		inTx := false
		now := sim.Cycle(1)

		ensureTx := func() {
			if !inTx {
				s.TxBegin(0, now)
				inTx = true
				now++
			}
		}
		store := func(a mem.Addr, v mem.Word) {
			ensureTx()
			old, _ := env.Cache.Store(0, a, v, now)
			s.Store(0, a, old, v, now)
			pending[a] = v
			now++
		}
		for _, op := range seq {
			switch op {
			case opStoreA1:
				store(wordA, 1)
			case opStoreA2:
				store(wordA, 2)
			case opStoreB1:
				store(wordB, 1)
			case opEvictA:
				if data, dirty := env.Cache.CleanLine(0, wordA); dirty {
					s.CachelineEvicted(now, wordA.Line(), data)
				}
				now++
			case opCommit:
				if inTx {
					s.TxEnd(0, now)
					inTx = false
					for a, v := range pending {
						committed[a] = v
						delete(pending, a)
					}
					now++
				}
			}
		}
		// Power failure, volatile loss, recovery.
		s.Crash(now)
		env.Cache.InvalidateAll()
		recovery.Recover(dev, env.Region)
		for a, want := range committed {
			if got := dev.PeekWord(a); got != want {
				return fmt.Errorf("word %v = %d, want %d (seq %v)", a, got, want, seq)
			}
		}
		return nil
	}

	// Enumerate all sequences of length exactly `depth` (every prefix is
	// itself covered by some other sequence's crash point because the
	// crash happens after the whole sequence — shorter behaviours are
	// reached via trailing no-op commits).
	seq := make([]opKind, depth)
	var walk func(i int) error
	count := 0
	walk = func(i int) error {
		if i == depth {
			count++
			return run(seq)
		}
		for op := opKind(0); op < opCount; op++ {
			seq[i] = op
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		t.Fatal(err)
	}
	t.Logf("exhaustively verified %d op sequences", count)
}
