package pm

import (
	"bytes"
	"testing"
	"testing/quick"

	"silo/internal/mem"
	"silo/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BufLines = 4 // small buffer so evictions happen in tests
	return cfg
}

func TestWriteReadRoundtrip(t *testing.T) {
	d := New(testConfig())
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	d.Write(0, 0x1000, data)
	// Reading while the write still occupies the channel pays interference.
	got, lat := d.Read(0, 0x1000, 8)
	if !bytes.Equal(got, data) {
		t.Errorf("read back %v, want %v", got, data)
	}
	if lat <= d.Config().ReadLatency {
		t.Errorf("contended read latency = %d, want > %d", lat, d.Config().ReadLatency)
	}
	// Long after the queue drained, the read costs the base latency.
	if _, lat := d.Read(1_000_000, 0x1000, 8); lat != d.Config().ReadLatency {
		t.Errorf("idle read latency = %d, want %d", lat, d.Config().ReadLatency)
	}
}

func TestPopulateBypassesAccounting(t *testing.T) {
	d := New(testConfig())
	d.Populate(0x2000, make([]byte, 1024))
	s := d.Stats()
	if s.WPQWrites != 0 || s.MediaWrites != 0 {
		t.Errorf("Populate must not count traffic: %+v", s)
	}
}

func TestPeekPokeWord(t *testing.T) {
	d := New(testConfig())
	d.PokeWord(0x3008, 0xDEADBEEFCAFE)
	if got := d.PeekWord(0x3008); got != 0xDEADBEEFCAFE {
		t.Errorf("PeekWord = %#x", uint64(got))
	}
	// Unwritten memory reads as zero.
	if got := d.PeekWord(0x9999998); got != 0 {
		t.Errorf("unwritten word = %#x, want 0", uint64(got))
	}
}

func TestPokeWordCoherentWithBufferedWrite(t *testing.T) {
	d := New(testConfig())
	d.Write(0, 0x4000, []byte{9, 9, 9, 9, 9, 9, 9, 9}) // lands in on-PM buffer
	d.PokeWord(0x4000, 0x0102030405060708)             // recovery-style write
	if got := d.PeekWord(0x4000); got != 0x0102030405060708 {
		t.Errorf("PokeWord shadowed by stale buffer: %#x", uint64(got))
	}
}

// Fig. 9 case 1: writes with the same buffer-line address and overlapping
// bytes coalesce; the later write wins.
func TestCoalescingOverlap(t *testing.T) {
	d := New(testConfig())
	d.Write(0, 16, []byte{1, 1, 1, 1, 1, 1, 1, 1}) // W1 @16
	d.Write(0, 24, []byte{2, 2, 2, 2, 2, 2, 2, 2}) // W2 @24
	d.Write(0, 20, []byte{3, 3, 3, 3, 3, 3, 3, 3}) // W3 @20 overlaps both
	got := d.Peek(16, 16)
	want := []byte{1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2}
	if !bytes.Equal(got, want) {
		t.Errorf("coalesced bytes = %v, want %v", got, want)
	}
	d.DrainAll()
	if s := d.Stats(); s.MediaWrites != 1 {
		t.Errorf("case-1 coalescing: %d media writes, want 1", s.MediaWrites)
	}
}

// Fig. 9 case 2: same line, disjoint bytes — one media write.
func TestCoalescingSameLine(t *testing.T) {
	d := New(testConfig())
	d.Write(0, 400, []byte{4, 4, 4, 4, 4, 4, 4, 4})
	d.Write(0, 408, []byte{5, 5, 5, 5, 5, 5, 5, 5})
	d.DrainAll()
	if s := d.Stats(); s.MediaWrites != 1 {
		t.Errorf("case-2 coalescing: %d media writes, want 1", s.MediaWrites)
	}
}

// Fig. 9 case 3: words share the buffer with full cachelines.
func TestCoalescingWordWithCacheline(t *testing.T) {
	d := New(testConfig())
	line := make([]byte, mem.LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	d.Write(0, 512, line)                              // cacheline at 512
	d.Write(0, 512+64, []byte{7, 7, 7, 7, 7, 7, 7, 7}) // word in same 256B buffer line
	d.DrainAll()
	// Two 64 B chunks changed -> two media writes, but only one buffer line.
	if s := d.Stats(); s.MediaWrites != 2 {
		t.Errorf("media writes = %d, want 2", s.MediaWrites)
	}
}

func TestDCWSuppressesUnchangedWrites(t *testing.T) {
	d := New(testConfig())
	data := []byte{8, 8, 8, 8, 8, 8, 8, 8}
	d.Write(0, 0x5000, data)
	d.DrainAll()
	before := d.Stats().MediaWrites
	// Writing identical bytes again must not reach the media.
	d.Write(0, 0x5000, data)
	d.DrainAll()
	if got := d.Stats().MediaWrites; got != before {
		t.Errorf("DCW failed: media writes %d -> %d", before, got)
	}
	// Changing a single byte does reach it, costing exactly 1 byte.
	data[3] = 42
	mb := d.Stats().MediaBytes
	d.Write(0, 0x5000, data)
	d.DrainAll()
	if got := d.Stats().MediaWrites; got != before+1 {
		t.Errorf("changed write: media writes %d, want %d", got, before+1)
	}
	if got := d.Stats().MediaBytes; got != mb+1 {
		t.Errorf("changed write: media bytes %d, want %d", got, mb+1)
	}
}

func TestDCWDisabledCountsFullChunks(t *testing.T) {
	cfg := testConfig()
	cfg.DCW = false
	d := New(cfg)
	data := []byte{8, 8, 8, 8, 8, 8, 8, 8}
	d.Write(0, 0x5000, data)
	d.DrainAll()
	d.Write(0, 0x5000, data) // identical, but DCW off
	d.DrainAll()
	if got := d.Stats().MediaWrites; got != 2 {
		t.Errorf("DCW-off media writes = %d, want 2", got)
	}
	if got := d.Stats().MediaBytes; got != 2*mem.LineSize {
		t.Errorf("DCW-off media bytes = %d, want %d", got, 2*mem.LineSize)
	}
}

func TestCoalescingDisabledWritesThrough(t *testing.T) {
	cfg := testConfig()
	cfg.Coalescing = false
	d := New(cfg)
	d.Write(0, 400, []byte{4, 4, 4, 4, 4, 4, 4, 4})
	d.Write(0, 408, []byte{5, 5, 5, 5, 5, 5, 5, 5})
	if got := d.Stats().MediaWrites; got != 2 {
		t.Errorf("no-coalescing media writes = %d, want 2", got)
	}
	if got := d.Peek(400, 8); !bytes.Equal(got, []byte{4, 4, 4, 4, 4, 4, 4, 4}) {
		t.Errorf("write-through content wrong: %v", got)
	}
}

func TestWriteSpanningBufferLines(t *testing.T) {
	d := New(testConfig())
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	// 256B-line boundary at 256: write 224..288 spans two buffer lines.
	d.Write(0, 224, data)
	if got := d.Peek(224, 64); !bytes.Equal(got, data) {
		t.Errorf("spanning write readback wrong")
	}
}

func TestBufferEvictionKeepsContents(t *testing.T) {
	cfg := testConfig() // 4 buffer lines
	d := New(cfg)
	// Write 8 distinct buffer lines: 4 must evict to media.
	for i := 0; i < 8; i++ {
		addr := mem.Addr(i * cfg.BufLineSize)
		d.Write(0, addr, []byte{byte(i + 1), 0, 0, 0, 0, 0, 0, 0})
	}
	for i := 0; i < 8; i++ {
		addr := mem.Addr(i * cfg.BufLineSize)
		if got := d.Peek(addr, 1)[0]; got != byte(i+1) {
			t.Errorf("line %d lost after eviction: %d", i, got)
		}
	}
	if s := d.Stats(); s.MediaWrites < 4 {
		t.Errorf("expected at least 4 media writes from evictions, got %d", s.MediaWrites)
	}
}

func TestWPQAcceptanceBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.WPQEntries = 2
	cfg.Banks = 1
	d := New(cfg)
	// service = 6 + 8 = 14 cycles per 8B write.
	d.Write(0, 0, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	d.Write(0, 8, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	accept, _ := d.Write(0, 16, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	if accept != 14 {
		t.Errorf("backpressured acceptance = %d, want 14", accept)
	}
}

func TestBanksDivideService(t *testing.T) {
	mk := func(banks int) simCycle {
		cfg := testConfig()
		cfg.Banks = banks
		d := New(cfg)
		_, f := d.Write(0, 0, make([]byte, 64))
		return simCycle(f)
	}
	if f1, f4 := mk(1), mk(4); f4 >= f1 {
		t.Errorf("banked service %d not faster than unbanked %d", f4, f1)
	}
}

type simCycle int64

func TestEraseRemovesDataAndFlushesBuffer(t *testing.T) {
	d := New(testConfig())
	d.Write(0, 0x6000, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	before := d.Stats().MediaWrites
	d.Erase(0x6000, 8)
	// The buffered write still reached the media (accounting preserved)...
	if got := d.Stats().MediaWrites; got != before+1 {
		t.Errorf("erase dropped accounting: media writes %d, want %d", got, before+1)
	}
	// ...but the contents are gone everywhere.
	if got := d.PeekWord(0x6000); got != 0 {
		t.Errorf("erased word = %#x, want 0", uint64(got))
	}
}

func TestZeroLengthWrite(t *testing.T) {
	d := New(testConfig())
	a, f := d.Write(123, 0x7000, nil)
	if a != 123 || f != 123 {
		t.Errorf("zero-length write: accept=%d finish=%d", a, f)
	}
	if d.Stats().WPQWrites != 0 {
		t.Error("zero-length write counted")
	}
}

// Property: Peek always returns the bytes of the latest Write/Populate,
// regardless of coalescing and evictions.
func TestDeviceContentProperty(t *testing.T) {
	f := func(ops []struct {
		Addr uint16
		Val  uint8
		Pop  bool
	}) bool {
		d := New(testConfig())
		shadow := make(map[mem.Addr]byte)
		for _, op := range ops {
			a := mem.Addr(op.Addr)
			if op.Pop {
				d.Populate(a, []byte{op.Val})
			} else {
				d.Write(0, a, []byte{op.Val})
			}
			shadow[a] = op.Val
		}
		for a, v := range shadow {
			if d.Peek(a, 1)[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeviceString(t *testing.T) {
	d := New(testConfig())
	if d.String() == "" {
		t.Error("String() empty")
	}
}

func TestChannelsInterleave(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 2
	cfg.Banks = 1
	d := New(cfg)
	if d.Channels() != 2 {
		t.Fatal("channel count")
	}
	// Two writes to different buffer lines land on different channels and
	// drain in parallel: both finish at their own service time.
	_, f1 := d.Write(0, 0, make([]byte, 64))                         // channel 0
	_, f2 := d.Write(0, mem.Addr(cfg.BufLineSize), make([]byte, 64)) // channel 1
	if f1 != f2 {
		t.Errorf("parallel channels should finish together: %d vs %d", f1, f2)
	}
	// Same buffer line -> same channel -> serialized.
	_, f3 := d.Write(0, 8, make([]byte, 64))
	if f3 <= f1 {
		t.Errorf("same-channel write not serialized: %d <= %d", f3, f1)
	}
}

func TestChannelsPreserveContents(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 4
	d := New(cfg)
	for i := 0; i < 64; i++ {
		d.Write(sim.Cycle(i), mem.Addr(i*104), []byte{byte(i + 1)})
	}
	for i := 0; i < 64; i++ {
		if got := d.Peek(mem.Addr(i*104), 1)[0]; got != byte(i+1) {
			t.Fatalf("byte %d lost across channels: %d", i, got)
		}
	}
}

func TestChannelsClampedToOne(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 0
	if d := New(cfg); d.Channels() != 1 {
		t.Error("zero channels not clamped")
	}
}

// TestPopulateOverridesBufferedWrite is the regression test for a
// shadowing bug the property test surfaced: a Populate (setup or
// battery-powered crash flush) following a buffered Write to the same
// bytes must win in the durable view.
func TestPopulateOverridesBufferedWrite(t *testing.T) {
	d := New(testConfig())
	d.Write(0, 0x77a8, []byte{0x37})
	d.Populate(0x77a8, []byte{0x31})
	if got := d.Peek(0x77a8, 1)[0]; got != 0x31 {
		t.Fatalf("stale buffered byte shadowed Populate: %#x", got)
	}
	// And the value survives a buffer drain.
	d.DrainAll()
	if got := d.Peek(0x77a8, 1)[0]; got != 0x31 {
		t.Fatalf("drain resurrected the stale byte: %#x", got)
	}
}

func TestCrashAllowanceUnarmed(t *testing.T) {
	d := New(testConfig())
	if got := d.CrashAllowance(100, false); got != 100 {
		t.Errorf("unarmed allowance = %d, want 100", got)
	}
}

func TestCrashAllowanceUnlimitedBudget(t *testing.T) {
	d := New(testConfig())
	d.SetCrashEnergy(0, false, false) // 0 = correctly-provisioned battery
	if got := d.CrashAllowance(1<<20, false); got != 1<<20 {
		t.Errorf("unlimited allowance = %d", got)
	}
}

func TestCrashAllowanceBudgetExhausts(t *testing.T) {
	d := New(testConfig())
	d.SetCrashEnergy(20, false, false)
	if got := d.CrashAllowance(18, false); got != 18 {
		t.Fatalf("first record allowance = %d, want 18", got)
	}
	// 2 bytes remain; without tearing a partial record is dropped whole.
	if got := d.CrashAllowance(18, false); got != 0 {
		t.Errorf("post-budget allowance = %d, want 0", got)
	}
}

func TestCrashAllowanceTearsAtWords(t *testing.T) {
	d := New(testConfig())
	d.SetCrashEnergy(20, true, false)
	// 20 bytes for a 30-byte record: torn down to word granularity.
	if got := d.CrashAllowance(30, false); got != 16 {
		t.Errorf("torn allowance = %d, want 16 (20 &^ 7)", got)
	}
}

func TestCrashAllowanceCriticalBypassesBudget(t *testing.T) {
	d := New(testConfig())
	d.SetCrashEnergy(8, false, false)
	// Critical records (commit tuples, undo logs) are within the battery's
	// Table IV sizing: they flush in full and do not drain the budget.
	if got := d.CrashAllowance(100, true); got != 100 {
		t.Fatalf("critical allowance = %d, want 100", got)
	}
	if got := d.CrashAllowance(8, false); got != 8 {
		t.Errorf("budget drained by critical record: allowance = %d", got)
	}
}

func TestCrashAllowanceStrictChargesCritical(t *testing.T) {
	d := New(testConfig())
	d.SetCrashEnergy(8, false, true) // battery failed below spec
	if got := d.CrashAllowance(100, true); got != 0 {
		t.Errorf("strict critical allowance = %d, want 0", got)
	}
}

func TestClearCrashEnergy(t *testing.T) {
	d := New(testConfig())
	d.SetCrashEnergy(1, false, true)
	d.ClearCrashEnergy()
	// Recovery-time writes must not be limited by the crash battery.
	if got := d.CrashAllowance(100, false); got != 100 {
		t.Errorf("post-clear allowance = %d, want 100", got)
	}
}

// Among equally worn lines WearStats names the first inserted one: the
// Hotspot table's HottestIn column (data or log) depends on that
// tie-break, so it must not drift to address order or index order.
func TestWearStatsTieBreakFirstInserted(t *testing.T) {
	layout := DefaultConfig().Layout
	logLine, low, high := layout.LogBase+mem.LineSize, mem.Addr(0x1000), mem.Addr(0x4000_0000)
	for _, order := range [][]mem.Addr{
		{logLine, low, high},
		{high, logLine, low},
		{low, high, logLine},
	} {
		cfg := testConfig()
		cfg.Coalescing = false
		d := New(cfg)
		d.Populate(0x2000, []byte{9}) // inserted before all, never worn
		for v := byte(1); v <= 3; v++ {
			for _, line := range order {
				d.Write(0, line, []byte{v, v, v, v, v, v, v, v})
			}
		}
		w := d.WearStats()
		if w.LinesTouched != 3 || w.MaxWrites != 3 || w.HottestLine != order[0] {
			t.Errorf("order %v: %+v, want 3 lines at 3 writes, hottest %v", order, w, order[0])
		}
	}
}
