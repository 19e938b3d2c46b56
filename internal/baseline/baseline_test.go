package baseline

import (
	"testing"

	"silo/internal/cache"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
	"silo/internal/stats"
)

func newEnv(cores int) (*logging.Env, *pm.Device) {
	dev := pm.New(pm.DefaultConfig())
	fill := func(la mem.Addr, now sim.Cycle, dst *[mem.LineSize]byte) sim.Cycle {
		copy(dst[:], dev.Peek(la, mem.LineSize))
		return 100
	}
	wb := func(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
		dev.Write(now, la, data[:])
	}
	env := &logging.Env{
		PM:            dev,
		Cache:         cache.NewHierarchy(cores, cache.DefaultHierarchyConfig(), fill, wb),
		Region:        logging.NewRegionWriter(dev, cores),
		Cores:         cores,
		LogBufEntries: logging.DefaultBufferEntries,
		LogBufLatency: 8,
	}
	return env, dev
}

// --- Base ---

func TestBaseStoreSynchronousPersists(t *testing.T) {
	env, dev := newEnv(1)
	b := NewBase(env).(*Base)
	b.TxBegin(0, 0)
	env.Cache.Store(0, 0x1000, 7, 0) // dirty the line
	stall := b.Store(0, 0x1000, 0, 7, 10)
	if stall < 2*logging.PersistPath {
		t.Errorf("store stall = %d, want >= %d (log + clwb persists)", stall, 2*logging.PersistPath)
	}
	// Log record is a full undo+redo image.
	recs := env.Region.Scan(0)
	if len(recs) != 1 || recs[0].Kind != logging.ImageUndoRedo {
		t.Fatalf("log region: %+v", recs)
	}
	// Data line reached PM.
	if got := dev.PeekWord(0x1000); got != 7 {
		t.Errorf("cacheline not flushed: %d", got)
	}
	// Line now clean: a second identical store flushes again only after
	// re-dirtying.
	if _, dirty := env.Cache.DirtyLine(0, 0x1000); dirty {
		t.Error("line still dirty after clwb")
	}
}

func TestBaseTxEndTruncates(t *testing.T) {
	env, _ := newEnv(1)
	b := NewBase(env).(*Base)
	b.TxBegin(0, 0)
	env.Cache.Store(0, 0x1000, 7, 0)
	b.Store(0, 0x1000, 0, 7, 10)
	if lat := b.TxEnd(0, 100); lat != 0 {
		t.Errorf("Base commit stall = %d, want 0 (all persisted per store)", lat)
	}
	if len(env.Region.Scan(0)) != 0 {
		t.Error("logs not truncated at commit")
	}
}

func TestBaseNonTxStoreFree(t *testing.T) {
	env, _ := newEnv(1)
	b := NewBase(env).(*Base)
	if stall := b.Store(0, 0x1000, 0, 7, 10); stall != 0 {
		t.Errorf("non-tx store stalled %d", stall)
	}
}

// --- FWB ---

func TestFWBStoreForcesLog(t *testing.T) {
	env, _ := newEnv(1)
	f := NewFWB(env).(*FWB)
	f.TxBegin(0, 0)
	stall := f.Store(0, 0x2000, 1, 2, 10)
	if stall < logging.PersistPath {
		t.Errorf("store stall = %d, want >= persist path (log before data)", stall)
	}
	recs := env.Region.Scan(0)
	if len(recs) != 1 || recs[0].Kind != logging.ImageUndoRedo || recs[0].Data != 1 || recs[0].Data2 != 2 {
		t.Fatalf("log record wrong: %+v", recs)
	}
}

func TestFWBTxEndWritesCommitRecord(t *testing.T) {
	env, _ := newEnv(1)
	f := NewFWB(env).(*FWB)
	f.TxBegin(0, 0)
	f.Store(0, 0x2000, 1, 2, 10)
	f.TxEnd(0, 200)
	recs := env.Region.Scan(0)
	if len(recs) != 2 || recs[1].Kind != logging.ImageCommit {
		t.Fatalf("missing commit record: %+v", recs)
	}
}

func TestFWBTickForcesWriteBackAndPrunes(t *testing.T) {
	env, dev := newEnv(1)
	f := NewFWB(env).(*FWB)
	f.TxBegin(0, 0)
	env.Cache.Store(0, 0x2000, 9, 0)
	f.Store(0, 0x2000, 0, 9, 10)
	f.TxEnd(0, 100)
	f.Tick(200) // before the interval: nothing
	if got := dev.PeekWord(0x2000); got != 0 {
		t.Fatalf("data flushed before FWB interval")
	}
	f.Tick(FWBInterval + 1)
	if got := dev.PeekWord(0x2000); got != 9 {
		t.Errorf("force write-back missed dirty line: %d", got)
	}
	if len(env.Region.Scan(0)) != 0 {
		t.Error("idle thread's logs not pruned after FWB")
	}
}

func TestFWBTickKeepsInFlightLogs(t *testing.T) {
	env, _ := newEnv(1)
	f := NewFWB(env).(*FWB)
	f.TxBegin(0, 0)
	f.Store(0, 0x2000, 1, 2, 10)
	f.Tick(FWBInterval + 1)
	if len(env.Region.Scan(0)) == 0 {
		t.Error("in-flight transaction's logs were pruned")
	}
}

// --- MorLog ---

func TestMorLogMergesOnChip(t *testing.T) {
	env, _ := newEnv(1)
	m := NewMorLog(env).(*MorLog)
	m.TxBegin(0, 0)
	m.Store(0, 0x3000, 1, 2, 1)
	m.Store(0, 0x3000, 2, 3, 2)
	if m.bufs[0].Len() != 1 {
		t.Fatalf("morphing failed: %d staged entries", m.bufs[0].Len())
	}
	if len(env.Region.Scan(0)) != 0 {
		t.Error("logs written before commit")
	}
	m.TxEnd(0, 10)
	recs := env.Region.Scan(0)
	// One merged undo+redo record + commit record.
	if len(recs) != 2 {
		t.Fatalf("flushed %d records, want 2", len(recs))
	}
	if recs[0].Data != 1 || recs[0].Data2 != 3 {
		t.Errorf("morphed record old/new = %d/%d, want 1/3", recs[0].Data, recs[0].Data2)
	}
}

func TestMorLogCommitStallScalesWithEntries(t *testing.T) {
	env, _ := newEnv(1)
	m := NewMorLog(env).(*MorLog)
	m.TxBegin(0, 0)
	for i := 0; i < 5; i++ {
		m.Store(0, mem.Addr(0x3000+i*8), 0, mem.Word(i+1), 1)
	}
	stall := m.TxEnd(0, 100)
	// One ADR-persist-buffer hop per staged entry (plus the commit record).
	if stall < 5*(logging.PersistPath/4) {
		t.Errorf("commit stall = %d, want >= %d (per-entry drain)", stall, 5*(logging.PersistPath/4))
	}
}

func TestMorLogSpillOnOverflow(t *testing.T) {
	env, _ := newEnv(1)
	m := NewMorLog(env).(*MorLog)
	m.TxBegin(0, 0)
	for i := 0; i <= MorLogBufEntries; i++ {
		m.Store(0, mem.Addr(0x4000+i*8), 0, mem.Word(i+1), 1)
	}
	if m.spilled != 1 {
		t.Errorf("spilled = %d, want 1", m.spilled)
	}
	if len(env.Region.Scan(0)) != 1 {
		t.Error("spilled entry not in log region")
	}
}

func TestMorLogCrashFlushesStaged(t *testing.T) {
	env, _ := newEnv(1)
	m := NewMorLog(env).(*MorLog)
	m.TxBegin(0, 0)
	m.Store(0, 0x3000, 1, 2, 1)
	m.Crash(5)
	recs := env.Region.Scan(0)
	if len(recs) != 1 || recs[0].Kind != logging.ImageUndoRedo {
		t.Fatalf("crash flush wrong: %+v", recs)
	}
}

// --- LAD ---

func TestLADBuffersUncommittedEvictions(t *testing.T) {
	env, dev := newEnv(1)
	l := NewLAD(env).(*LAD)
	l.TxBegin(0, 0)
	l.Store(0, 0x5000, 0, 1, 1)
	var line [mem.LineSize]byte
	line[0] = 1
	l.CachelineEvicted(2, 0x5000, line)
	// Not in PM (atomicity), but visible through the MC buffer.
	if got := dev.PeekWord(0x5000); got != 0 {
		t.Errorf("uncommitted eviction reached PM: %d", got)
	}
	data, ok := l.MCBuffered(0x5000)
	if !ok || data[0] != 1 {
		t.Error("MC buffer miss")
	}
}

func TestLADCommitReleasesBufferedLines(t *testing.T) {
	env, dev := newEnv(1)
	l := NewLAD(env).(*LAD)
	l.TxBegin(0, 0)
	l.Store(0, 0x5000, 0, 1, 1)
	var line [mem.LineSize]byte
	line[0] = 1
	l.CachelineEvicted(2, 0x5000, line)
	l.TxEnd(0, 10)
	if got := dev.Peek(0x5000, 1)[0]; got != 1 {
		t.Errorf("committed line not released to PM: %d", got)
	}
	if _, ok := l.MCBuffered(0x5000); ok {
		t.Error("line still buffered after commit")
	}
}

func TestLADCommitFlushesDirtyLines(t *testing.T) {
	env, dev := newEnv(1)
	l := NewLAD(env).(*LAD)
	l.TxBegin(0, 0)
	env.Cache.Store(0, 0x6000, 42, 0)
	env.Cache.Store(0, 0x6040, 43, 1)
	l.Store(0, 0x6000, 0, 42, 1)
	l.Store(0, 0x6040, 0, 43, 2)
	stall := l.TxEnd(0, 10)
	if want := 2*LADFlushPerLine + LADCommitMsg; stall != want {
		t.Errorf("Prepare stall = %d, want %d", stall, want)
	}
	if dev.PeekWord(0x6000) != 42 || dev.PeekWord(0x6040) != 43 {
		t.Error("Prepare-flushed lines not released to PM")
	}
}

func TestLADCrashDropsUncommitted(t *testing.T) {
	env, dev := newEnv(1)
	l := NewLAD(env).(*LAD)
	l.TxBegin(0, 0)
	l.Store(0, 0x7000, 0, 1, 1)
	var line [mem.LineSize]byte
	line[0] = 1
	l.CachelineEvicted(2, 0x7000, line)
	l.Crash(3)
	if got := dev.Peek(0x7000, 1)[0]; got != 0 {
		t.Errorf("uncommitted data survived crash: %d", got)
	}
	if _, ok := l.MCBuffered(0x7000); ok {
		t.Error("MC buffer survived crash")
	}
}

func TestLADSlowModeOnOverflow(t *testing.T) {
	env, dev := newEnv(1)
	l := NewLAD(env).(*LAD)
	l.TxBegin(0, 0)
	var line [mem.LineSize]byte
	for i := 0; i <= LADMCCapacity; i++ {
		la := mem.Addr(0x10000 + i*mem.LineSize)
		l.Store(0, la, 0, 1, 1)
		line[0] = byte(i + 1)
		l.CachelineEvicted(2, la, line)
	}
	if l.overflows != 1 {
		t.Fatalf("overflows = %d, want 1", l.overflows)
	}
	if l.slowModeReads != 1 {
		t.Errorf("slow mode must read old data from PM")
	}
	// The overflowed line went through to PM with an undo log.
	last := mem.Addr(0x10000 + LADMCCapacity*mem.LineSize)
	if got := dev.Peek(last, 1)[0]; got != byte(LADMCCapacity+1) {
		t.Errorf("overflowed line not in PM: %d", got)
	}
	if len(env.Region.Scan(0)) != mem.WordsPerLine {
		t.Errorf("undo log for overflowed line missing: %d records", len(env.Region.Scan(0)))
	}
}

func TestLADCommittedEvictionPassesThrough(t *testing.T) {
	env, dev := newEnv(1)
	l := NewLAD(env).(*LAD)
	var line [mem.LineSize]byte
	line[0] = 9
	l.CachelineEvicted(1, 0x8000, line) // no tx owns it
	if got := dev.Peek(0x8000, 1)[0]; got != 9 {
		t.Errorf("non-transactional eviction blocked: %d", got)
	}
}

// --- shared ---

func TestNamesAndStats(t *testing.T) {
	env, _ := newEnv(1)
	designs := []logging.Design{NewBase(env), NewFWB(env), NewMorLog(env), NewLAD(env)}
	want := []string{"Base", "FWB", "MorLog", "LAD"}
	for i, d := range designs {
		if d.Name() != want[i] {
			t.Errorf("name = %q, want %q", d.Name(), want[i])
		}
		var r stats.Run
		d.CollectStats(&r) // must not panic on fresh design
		d.Crash(0)         // ditto
	}
}
