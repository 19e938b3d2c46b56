package baseline

import (
	"testing"

	"silo/internal/logging"
	"silo/internal/mem"
)

// --- SWLog ---

func TestSWLogStoreOnCriticalPath(t *testing.T) {
	env, _ := newEnv(1)
	s := NewSWLog(env).(*SWLog)
	s.TxBegin(0, 0)
	stall := s.Store(0, 0x1000, 1, 2, 10)
	if stall < SWLogInsOverhead+logging.PersistPath {
		t.Errorf("store stall = %d, want >= %d (software clwb+sfence)",
			stall, SWLogInsOverhead+logging.PersistPath)
	}
	recs := env.Region.Scan(0)
	if len(recs) != 1 || recs[0].Kind != logging.ImageUndoRedo {
		t.Fatalf("log: %+v", recs)
	}
}

func TestSWLogCommitFlushesWriteSet(t *testing.T) {
	env, dev := newEnv(1)
	s := NewSWLog(env).(*SWLog)
	s.TxBegin(0, 0)
	env.Cache.Store(0, 0x1000, 7, 0)
	env.Cache.Store(0, 0x1040, 8, 1)
	s.Store(0, 0x1000, 0, 7, 10)
	s.Store(0, 0x1040, 0, 8, 11)
	stall := s.TxEnd(0, 500)
	if stall < 3*logging.PersistPath { // 2 lines + commit record
		t.Errorf("commit stall = %d, want >= %d", stall, 3*logging.PersistPath)
	}
	if dev.PeekWord(0x1000) != 7 || dev.PeekWord(0x1040) != 8 {
		t.Error("write set not flushed at commit")
	}
	recs := env.Region.Scan(0)
	if recs[len(recs)-1].Kind != logging.ImageCommit {
		t.Error("missing commit record")
	}
}

// --- UndoHW ---

func TestUndoHWStoreBackground(t *testing.T) {
	env, _ := newEnv(1)
	u := NewUndoHW(env).(*UndoHW)
	u.TxBegin(0, 0)
	if stall := u.Store(0, 0x2000, 5, 6, 10); stall != 0 {
		t.Errorf("undo store stalled %d (hardware logging is background)", stall)
	}
	recs := env.Region.Scan(0)
	if len(recs) != 1 || recs[0].Kind != logging.ImageUndo || recs[0].Data != 5 {
		t.Fatalf("undo record wrong: %+v", recs)
	}
}

func TestUndoHWCommitWaitsForData(t *testing.T) {
	env, dev := newEnv(1)
	u := NewUndoHW(env).(*UndoHW)
	u.TxBegin(0, 0)
	env.Cache.Store(0, 0x2000, 9, 0)
	u.Store(0, 0x2000, 0, 9, 10)
	stall := u.TxEnd(0, 100)
	if stall < logging.PersistPath {
		t.Errorf("commit stall = %d; undo logging must persist data before commit", stall)
	}
	if dev.PeekWord(0x2000) != 9 {
		t.Error("data not persisted at commit")
	}
	if len(env.Region.Scan(0)) != 0 {
		t.Error("undo logs not truncated after commit")
	}
}

// --- RedoHW ---

func TestRedoHWStoreBackgroundAndStaging(t *testing.T) {
	env, dev := newEnv(1)
	r := NewRedoHW(env).(*RedoHW)
	r.TxBegin(0, 0)
	if stall := r.Store(0, 0x3000, 1, 2, 10); stall != 0 {
		t.Errorf("redo store stalled %d", stall)
	}
	var line [mem.LineSize]byte
	line[0] = 2
	r.CachelineEvicted(11, 0x3000, line)
	if dev.Peek(0x3000, 1)[0] != 0 {
		t.Error("in-place update before logs persisted (redo ordering violated)")
	}
	if data, ok := r.MCBuffered(0x3000); !ok || data[0] != 2 {
		t.Error("staged line not readable")
	}
}

func TestRedoHWCommitReleasesStaged(t *testing.T) {
	env, dev := newEnv(1)
	r := NewRedoHW(env).(*RedoHW)
	r.TxBegin(0, 0)
	r.Store(0, 0x3000, 1, 2, 10)
	var line [mem.LineSize]byte
	line[0] = 2
	r.CachelineEvicted(11, 0x3000, line)
	stall := r.TxEnd(0, 100)
	if stall < logging.PersistPath {
		t.Errorf("commit stall = %d; must wait for redo logs", stall)
	}
	if dev.Peek(0x3000, 1)[0] != 2 {
		t.Error("staged line not released at commit")
	}
	if _, ok := r.MCBuffered(0x3000); ok {
		t.Error("line still staged after commit")
	}
	recs := env.Region.Scan(0)
	if recs[len(recs)-1].Kind != logging.ImageCommit {
		t.Error("missing commit record")
	}
}

func TestRedoHWCrashDropsStaged(t *testing.T) {
	env, dev := newEnv(1)
	r := NewRedoHW(env).(*RedoHW)
	r.TxBegin(0, 0)
	r.Store(0, 0x3000, 1, 2, 10)
	var line [mem.LineSize]byte
	line[0] = 2
	r.CachelineEvicted(11, 0x3000, line)
	r.Crash(12)
	if dev.Peek(0x3000, 1)[0] != 0 {
		t.Error("uncommitted staged line reached PM")
	}
	if _, ok := r.MCBuffered(0x3000); ok {
		t.Error("staging buffer survived crash")
	}
}

func TestRedoHWNonTxEvictionPassesThrough(t *testing.T) {
	env, dev := newEnv(1)
	r := NewRedoHW(env).(*RedoHW)
	var line [mem.LineSize]byte
	line[0] = 5
	r.CachelineEvicted(1, 0x4000, line)
	if dev.Peek(0x4000, 1)[0] != 5 {
		t.Error("non-transactional eviction blocked")
	}
}

func TestExtraDesignNames(t *testing.T) {
	env, _ := newEnv(1)
	for _, d := range []logging.Design{NewSWLog(env), NewUndoHW(env), NewRedoHW(env)} {
		if d.Name() == "" {
			t.Error("empty design name")
		}
	}
}
