package baseline

import (
	"bytes"
	"testing"

	"silo/internal/logging"
	"silo/internal/sim"
)

func TestEADRSWLogsThroughCache(t *testing.T) {
	env, dev := newEnv(1)
	e := NewEADRSW(env).(*EADRSW)
	e.TxBegin(0, 0)
	stall := e.Store(0, 0x1000, 1, 2, 10)
	if stall < SWLogInsOverhead {
		t.Errorf("store stall = %d; composing the record costs instructions", stall)
	}
	// No PM traffic yet: the record lives in the cache.
	if dev.Stats().WPQWrites != 0 {
		t.Error("eADR log write reached PM before any eviction")
	}
	// The record is parseable from the cached log area.
	base, _ := env.PM.Config().Layout.ThreadLogArea(0, 1)
	if data, dirty := env.Cache.DirtyLine(0, base); !dirty || wordFrom(data[:]) == 0 {
		t.Error("log record not in cache")
	}
}

func TestEADRSWNoPersistAtCommit(t *testing.T) {
	env, dev := newEnv(1)
	e := NewEADRSW(env).(*EADRSW)
	e.TxBegin(0, 0)
	e.Store(0, 0x1000, 1, 2, 10)
	stall := e.TxEnd(0, 20)
	if stall > 3*logging.PersistPath/2 {
		t.Errorf("commit stall = %d; eADR needs no flushes/fences", stall)
	}
	if dev.Stats().WPQWrites != 0 {
		t.Error("commit forced PM writes under eADR")
	}
}

func TestEADRSWRecoverableAfterCacheFlush(t *testing.T) {
	env, _ := newEnv(1)
	e := NewEADRSW(env).(*EADRSW)
	e.TxBegin(0, 0)
	e.Store(0, 0x1000, 1, 2, 10)
	e.TxEnd(0, 20)
	e.TxBegin(0, 30)
	e.Store(0, 0x2000, 3, 4, 40) // uncommitted
	// eADR battery: all dirty cache contents flush at the crash.
	env.Cache.ForceWriteBackAll(50)
	recs := env.Region.Scan(0)
	if len(recs) != 3 {
		t.Fatalf("scanned %d records, want 3 (record, commit, record)", len(recs))
	}
	if recs[0].Kind != logging.ImageUndoRedo || recs[0].Data2 != 2 {
		t.Errorf("first record wrong: %+v", recs[0])
	}
	if recs[1].Kind != logging.ImageCommit {
		t.Errorf("commit marker wrong: %+v", recs[1])
	}
	if recs[2].Kind != logging.ImageUndoRedo || recs[2].Data != 3 {
		t.Errorf("uncommitted record wrong: %+v", recs[2])
	}
	if !e.PersistCachesAtCrash() {
		t.Error("eADR must persist caches at crash")
	}
}

func TestEADRSWCachePollution(t *testing.T) {
	env, _ := newEnv(1)
	e := NewEADRSW(env).(*EADRSW)
	e.TxBegin(0, 0)
	before := env.Cache.L1(0).Hits + env.Cache.L1(0).Misses
	e.Store(0, 0x1000, 1, 2, 10)
	after := env.Cache.L1(0).Hits + env.Cache.L1(0).Misses
	// Composing a 26 B record costs at least 4 extra L1 accesses.
	if after-before < 4 {
		t.Errorf("log composition touched L1 only %d times", after-before)
	}
}

// The log cursor's word is rewritten from tail, and a word the cursor
// enters fresh from the device: after a battery flush the log area
// holds, byte for byte, what a read-modify-write of every word produces
// — the appended records in order over the area's earlier bytes. Record
// boundaries fall mid-word. The second case reboots over a log area that
// still holds an older, longer run's bytes.
func TestEADRSWTailWord(t *testing.T) {
	records := func(seed byte, lens ...int) [][]byte {
		var out [][]byte
		for i, n := range lens {
			r := make([]byte, n)
			for j := range r {
				r[j] = seed + byte(16*i+j)
			}
			out = append(out, r)
		}
		return out
	}
	check := func(t *testing.T, env *logging.Env, e *EADRSW, recs [][]byte) {
		base, _ := env.PM.Config().Layout.ThreadLogArea(0, 1)
		const area = 256
		want := env.PM.Peek(base, area)
		off, now := 0, sim.Cycle(0)
		for i, r := range recs {
			copy(want[off:], r)
			off += len(r)
			now += e.appendCached(0, r, now)
			if i == len(recs)/2 {
				env.Cache.ForceWriteBackAll(now) // cleaned, still cached lines
			}
		}
		env.Cache.ForceWriteBackAll(now)
		if got := env.PM.Peek(base, area); !bytes.Equal(got, want) {
			t.Errorf("log area after %d bytes of records:\n got %x\nwant %x", off, got, want)
		}
	}
	t.Run("fresh device", func(t *testing.T) {
		env, _ := newEnv(1)
		check(t, env, NewEADRSW(env).(*EADRSW), records(0x10, 3, 26, 7, 13, 1, 9, 30, 5))
	})
	t.Run("reboot over an older log", func(t *testing.T) {
		env, _ := newEnv(1)
		check(t, env, NewEADRSW(env).(*EADRSW), records(0x80, 11, 40, 29, 17, 50, 6))
		env.Cache.InvalidateAll()
		check(t, env, NewEADRSW(env).(*EADRSW), records(0x10, 5, 26, 2, 21, 9))
	})
}
