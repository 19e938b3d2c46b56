// Package pm models the persistent-memory device of the simulated machine:
// a phase-change-memory DIMM behind the memory controller's write pending
// queue (WPQ), with an internal on-PM buffer and bit-level write reduction.
//
// Three properties matter for the Silo reproduction and are modeled
// faithfully:
//
//   - The WPQ sits in the ADR persistence domain: a write is durable the
//     moment it is *accepted* into the queue, and acceptance can stall when
//     the queue is full, which is how heavy-write designs lose throughput.
//
//   - The on-PM buffer (256 B lines by default) coalesces incoming writes
//     — overlapping words, adjacent words, and 8 B new-data words sharing a
//     line with evicted 64 B cachelines (Fig. 9 cases 1–3) — before they
//     reach the physical media.
//
//   - Data-comparison-write (DCW) suppresses media writes whose bits did
//     not change, so a cacheline evicted after Silo has already in-place
//     updated the same words costs no extra media wear (§III-D).
//
// Because both the WPQ and the on-PM buffer are persistent domains, the
// device applies data eagerly and tracks timing separately: the byte
// contents held by a Device always represent the durable state, which is
// exactly what a crash preserves.
package pm

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// Config parameterizes the device; see DefaultConfig.
type Config struct {
	Layout mem.Layout

	ReadLatency  sim.Cycle // PM read latency (cycles)
	WriteLatency sim.Cycle // PM media write latency (cycles); informational

	WPQEntries     int       // write pending queue slots (ADR domain), per channel
	ServiceBase    sim.Cycle // fixed cycles to drain one WPQ entry
	ServicePerByte sim.Cycle // additional drain cycles per byte
	Banks          int       // parallel PM banks the drain fans out over
	Channels       int       // independent memory controllers / WPQs (§III-D, "Multiple MCs"); requests interleave by on-PM-buffer line address

	BufLineSize int // on-PM buffer line size in bytes (S in §III-F)
	BufLines    int // on-PM buffer capacity in lines

	Coalescing bool // enable on-PM buffer write coalescing
	DCW        bool // enable data-comparison-write media reduction
}

// DefaultConfig mirrors Table II: 50/150 ns read/write at 2 GHz, a
// 64-entry WPQ, and a 256 B on-PM buffer line size.
func DefaultConfig() Config {
	return Config{
		Layout:         mem.DefaultLayout(),
		ReadLatency:    100,
		WriteLatency:   300,
		WPQEntries:     64,
		ServiceBase:    6,
		ServicePerByte: 1,
		Banks:          4,
		Channels:       1,
		BufLineSize:    256,
		BufLines:       64,
		Coalescing:     true,
		DCW:            true,
	}
}

// Stats counts device activity for one run.
type Stats struct {
	WPQWrites   int64 // requests accepted into the WPQ
	WPQBytes    int64
	MediaWrites int64 // 64 B-chunk write requests reaching the physical media
	MediaBytes  int64 // bytes actually programmed (post DCW)
	Reads       int64
}

// Device is the simulated PM DIMM plus the controller-side WPQs (one per
// channel). The durable media (64 B lines, with the per-line wear
// counter inline) and the on-PM buffer live in the flattened
// open-addressed tables of table.go.
type Device struct {
	cfg   Config
	media *mediaTable
	buf   *bufTable
	wpq   []*sim.ServiceQueue
	tick  int64 // LRU clock for the on-PM buffer
	stats Stats

	energy crashEnergy

	// tel receives typed probe events; now is the latest request arrival,
	// which timestamps the buffer/media events the internal paths emit
	// (apply and flushBufLine have no cycle parameter of their own).
	tel *telemetry.Recorder
	now sim.Cycle
}

// SetTelemetry attaches the probe-event recorder (nil disables probes).
func (d *Device) SetTelemetry(r *telemetry.Recorder) { d.tel = r }

// crashEnergy is the battery/ADR budget model for the selective crash
// flush (§III-G): a power failure leaves a bounded number of bytes the
// platform can still push into the persistence domain. The budget is
// armed by SetCrashEnergy at crash time and consumed by CrashAllowance
// as the design's crash flush streams records out.
type crashEnergy struct {
	armed     bool
	unlimited bool
	remaining int
	tearWords bool
	strict    bool
}

// SetCrashEnergy arms the crash-flush energy budget: at most budgetBytes
// of flush traffic survive the power failure (budgetBytes <= 0 models a
// correctly-provisioned battery — unlimited). With tearWords, a record
// that only partially fits is torn at 8-byte-word granularity (a prefix
// of whole words survives); otherwise a partial record is dropped
// entirely. With strict, even critical records (commit ID tuples, undo
// logs — the set the paper's Table IV battery is explicitly sized for)
// draw from the budget; non-strict mode lets them bypass it, modeling
// the guaranteed reserve a real battery dedicates to the must-flush set.
func (d *Device) SetCrashEnergy(budgetBytes int, tearWords, strict bool) {
	d.energy = crashEnergy{
		armed:     true,
		unlimited: budgetBytes <= 0,
		remaining: budgetBytes,
		tearWords: tearWords,
		strict:    strict,
	}
}

// ClearCrashEnergy disarms the budget — power is back; recovery writes
// are not battery-bounded.
func (d *Device) ClearCrashEnergy() { d.energy = crashEnergy{} }

// CrashEnergyRemaining reports the bytes left in an armed, bounded crash
// budget; bounded is false when no finite budget is armed (either power
// is on or the battery is modeled as correctly provisioned).
func (d *Device) CrashEnergyRemaining() (remaining int, bounded bool) {
	if !d.energy.armed || d.energy.unlimited {
		return 0, false
	}
	return d.energy.remaining, true
}

// CrashAllowance consumes budget for an n-byte crash-flush write and
// returns how many of its leading bytes survive: n (fits), 0 (dropped),
// or a word-rounded prefix length (torn). critical marks records the
// battery reserve guarantees (see SetCrashEnergy).
func (d *Device) CrashAllowance(n int, critical bool) int {
	e := &d.energy
	if !e.armed || e.unlimited || (critical && !e.strict) {
		return n
	}
	m := n
	if m > e.remaining {
		m = e.remaining
	}
	e.remaining -= m
	if m < n {
		if !e.tearWords {
			m = 0
		} else {
			m &^= mem.WordSize - 1
		}
	}
	d.tel.CrashEnergy(d.now, n, m, critical)
	return m
}

// New creates a Device from cfg.
func New(cfg Config) *Device {
	if cfg.BufLineSize < mem.LineSize {
		cfg.BufLineSize = mem.LineSize
	}
	if cfg.BufLines < 1 {
		cfg.BufLines = 1
	}
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	d := &Device{
		cfg:   cfg,
		media: newMediaTable(),
		buf:   newBufTable(cfg.BufLines, cfg.BufLineSize),
	}
	for i := 0; i < cfg.Channels; i++ {
		d.wpq = append(d.wpq, sim.NewServiceQueue(cfg.WPQEntries))
	}
	return d
}

// Reset empties a released device for an unrelated new run: all durable
// contents, wear counters, statistics, queue timing, energy budget, and
// telemetry are discarded. Only storage capacity survives — the media
// table keeps its grown slot array and entry pages, and the on-PM
// buffer keeps its byte pool — so repopulating a working set costs no
// grow/rehash/realloc churn. Recyclers reset a device when it is
// returned, so a pooled device is clean while it waits. (Contrast
// PowerCycle, which deliberately *preserves* media contents, wear, and
// statistics across a reboot of the same simulated system.)
func (d *Device) Reset() {
	d.media.reset()
	d.buf.reset()
	d.tick = 0
	d.stats = Stats{}
	d.energy = crashEnergy{}
	d.tel = nil
	d.now = 0
}

// Recycle re-purposes a Reset device as if freshly constructed by
// New(cfg). The on-PM buffer pool is kept when its geometry matches. A
// recycled device is observationally identical to a fresh one; the
// fleet's fresh-vs-reused equivalence test holds this line. It panics if
// the device was written since its Reset.
func (d *Device) Recycle(cfg Config) {
	if d.media.n != 0 || d.buf.n != 0 || d.stats != (Stats{}) {
		panic("pm: Recycle of a device that was not Reset")
	}
	if cfg.BufLineSize < mem.LineSize {
		cfg.BufLineSize = mem.LineSize
	}
	if cfg.BufLines < 1 {
		cfg.BufLines = 1
	}
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	if d.cfg.BufLines != cfg.BufLines || d.cfg.BufLineSize != cfg.BufLineSize {
		d.buf = newBufTable(cfg.BufLines, cfg.BufLineSize)
	}
	d.cfg = cfg
	// Queues are recreated rather than reset: ServiceQueue.Reset keeps the
	// cumulative accepted counter (a power cycle's contract), and a ring is
	// a few hundred bytes — not worth a special full-reset path.
	d.wpq = d.wpq[:0]
	for i := 0; i < cfg.Channels; i++ {
		d.wpq = append(d.wpq, sim.NewServiceQueue(cfg.WPQEntries))
	}
}

// MemFootprint approximates the device's retained table bytes; recyclers
// use it to drop a device that one outsized campaign ballooned.
func (d *Device) MemFootprint() int { return d.media.memFootprint() }

// channelIdx returns the index of the WPQ serving addr: channels
// interleave at the on-PM buffer line granularity, so a transaction's
// coalesced words stay on one controller (the paper's per-MC log
// controller invariant).
func (d *Device) channelIdx(addr mem.Addr) int {
	if len(d.wpq) == 1 {
		return 0
	}
	return int(uint64(addr) / uint64(d.cfg.BufLineSize) % uint64(len(d.wpq)))
}

func (d *Device) channel(addr mem.Addr) *sim.ServiceQueue {
	return d.wpq[d.channelIdx(addr)]
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// WPQ exposes channel i's write pending queue (used by designs and tests
// that inspect queue state; the ADR domain is the union of all channels).
func (d *Device) WPQ(i int) *sim.ServiceQueue { return d.wpq[i] }

// Channels returns the number of memory-controller channels.
func (d *Device) Channels() int { return len(d.wpq) }

// Populate writes data directly into the media with no timing or traffic
// accounting (workload setup, battery-powered crash flushes). Bytes of the
// range still sitting dirty in the on-PM buffer are overwritten there too,
// so the durable view (buffer over media) always reflects the populate.
func (d *Device) Populate(addr mem.Addr, data []byte) {
	for i := 0; i < len(data); {
		line := (addr + mem.Addr(i)).Line()
		off := (addr + mem.Addr(i)).LineOffset()
		n := copy(d.mediaLine(line)[off:], data[i:])
		i += n
	}
	if !d.cfg.Coalescing || d.buf.n == 0 {
		return
	}
	bls := mem.Addr(d.cfg.BufLineSize)
	first := addr &^ (bls - 1)
	last := (addr + mem.Addr(len(data)) - 1) &^ (bls - 1)
	for base := first; base <= last; base += bls {
		bl := d.buf.get(base)
		if bl == nil {
			continue
		}
		lo, hi := addr, addr+mem.Addr(len(data))
		if lo < base {
			lo = base
		}
		if hi > base+bls {
			hi = base + bls
		}
		for a := lo; a < hi; a++ {
			if off := int(a - base); bl.isDirty(off) {
				bl.data[off] = data[a-addr]
			}
		}
	}
}

func (d *Device) mediaLine(line mem.Addr) *[mem.LineSize]byte {
	return &d.media.getOrInsert(line).data
}

// Write submits one write request of len(data) bytes at addr, arriving at
// the memory controller at time `arrival`. It returns the time the request
// is accepted into the WPQ (the durability point under ADR) and the time
// it has fully drained. Contents are applied eagerly (see package comment).
func (d *Device) Write(arrival sim.Cycle, addr mem.Addr, data []byte) (accept, finish sim.Cycle) {
	if len(data) == 0 {
		return arrival, arrival
	}
	service := d.cfg.ServiceBase + d.cfg.ServicePerByte*sim.Cycle(len(data))
	if d.cfg.Banks > 1 {
		// Bank-level parallelism (NVMain-style): the single drain server
		// approximates Banks parallel channels.
		service = (service + sim.Cycle(d.cfg.Banks) - 1) / sim.Cycle(d.cfg.Banks)
	}
	ch := d.channelIdx(addr)
	q := d.wpq[ch]
	accept, finish = q.Accept(arrival, service)
	d.stats.WPQWrites++
	d.stats.WPQBytes += int64(len(data))
	if accept > d.now {
		d.now = accept
	}
	if d.tel != nil {
		// Guarded here, not only inside the probe: the depth argument is
		// a queue search, and arguments are evaluated before the probe's
		// own nil check.
		d.tel.WPQWrite(ch, accept, q.Occupancy(accept), accept-arrival, len(data))
	}
	d.apply(addr, data)
	return accept, finish
}

// apply routes the bytes through the on-PM buffer (splitting at buffer-line
// boundaries) or, with coalescing disabled, straight to the media.
func (d *Device) apply(addr mem.Addr, data []byte) {
	if !d.cfg.Coalescing {
		d.writeMedia(addr, data)
		return
	}
	bls := mem.Addr(d.cfg.BufLineSize)
	for len(data) > 0 {
		base := addr &^ (bls - 1)
		off := int(addr - base)
		n := d.cfg.BufLineSize - off
		if n > len(data) {
			n = len(data)
		}
		d.bufMerge(base, off, data[:n])
		addr += mem.Addr(n)
		data = data[n:]
	}
}

func (d *Device) bufMerge(base mem.Addr, off int, data []byte) {
	bl, idx, inserted := d.buf.getOrInsert(base)
	if inserted {
		d.tel.PMBufOpen(d.now, base, len(data))
	} else {
		d.tel.PMBufMerge(d.now, base, len(data))
	}
	copy(bl.data[off:], data)
	bl.markDirty(off, len(data))
	d.tick++
	bl.lru = d.tick
	d.buf.touch(idx)
	if inserted && d.buf.n > d.cfg.BufLines {
		d.evictLRU(base)
	}
}

// evictLRU flushes the least-recently-touched buffer line other than
// keep: the recency-list head, or its successor when the head is keep
// (the line just merged into).
func (d *Device) evictLRU(keep mem.Addr) {
	v := d.buf.head
	if v >= 0 && d.buf.pool[v].base == keep {
		v = d.buf.next[v]
	}
	if v >= 0 {
		d.flushBufLine(&d.buf.pool[v])
	}
}

// flushBufLine applies a buffer line's dirty bytes to the media, counting
// one media write request per 64 B chunk that actually changes (DCW), or
// per dirty chunk when DCW is disabled. The byte compare-and-merge runs
// a word at a time: the chunk's dirty bits select byte lanes via
// byteMask, and one masked XOR per word finds the changed bytes.
func (d *Device) flushBufLine(bl *bufLine) {
	d.buf.del(bl.base)
	programmed, suppressed, requests := 0, 0, 0
	for chunk := 0; chunk < d.cfg.BufLineSize; chunk += mem.LineSize {
		dirtyBits := bl.dirty[chunk>>6] // mem.LineSize == one bitmap word
		if dirtyBits == 0 {
			continue
		}
		me := d.media.getOrInsert(bl.base + mem.Addr(chunk))
		changed, dirty := 0, 0
		for w := 0; w < mem.LineSize; w += mem.WordSize {
			dm := uint8(dirtyBits >> w) // bit offset == byte offset
			if dm == 0 {
				continue
			}
			dirty += bits.OnesCount8(dm)
			m := byteMask[dm]
			oldW := binary.LittleEndian.Uint64(me.data[w:])
			newW := binary.LittleEndian.Uint64(bl.data[chunk+w:])
			diff := (oldW ^ newW) & m
			if diff == 0 {
				continue
			}
			changed += nonzeroBytes(diff)
			binary.LittleEndian.PutUint64(me.data[w:], (oldW&^m)|(newW&m))
		}
		if d.cfg.DCW {
			suppressed += dirty - changed
			if changed > 0 {
				d.stats.MediaWrites++
				d.stats.MediaBytes += int64(changed)
				me.wear++
				programmed += changed
				requests++
			}
		} else {
			d.stats.MediaWrites++
			d.stats.MediaBytes += mem.LineSize
			me.wear++
			programmed += mem.LineSize
			requests++
		}
	}
	d.tel.PMBufWriteback(d.now, bl.base, programmed, suppressed, requests)
}

// writeMedia bypasses the buffer (coalescing disabled); DCW still applies.
func (d *Device) writeMedia(addr mem.Addr, data []byte) {
	for len(data) > 0 {
		line := addr.Line()
		off := addr.LineOffset()
		n := mem.LineSize - off
		if n > len(data) {
			n = len(data)
		}
		me := d.media.getOrInsert(line)
		changed := 0
		for i := 0; i < n; i++ {
			if me.data[off+i] != data[i] {
				changed++
				me.data[off+i] = data[i]
			}
		}
		if d.cfg.DCW {
			if changed > 0 {
				d.stats.MediaWrites++
				d.stats.MediaBytes += int64(changed)
				me.wear++
			}
		} else {
			d.stats.MediaWrites++
			d.stats.MediaBytes += int64(n)
			me.wear++
		}
		addr += mem.Addr(n)
		data = data[n:]
	}
}

// Read returns n bytes of durable state starting at addr (on-PM buffer
// contents shadow the media) and the read latency. Reads have priority
// over the write drain (FRFCFS), but still queue behind the writes already
// occupying the channel: each pending WPQ entry on the target channel adds
// a small interference penalty.
func (d *Device) Read(arrival sim.Cycle, addr mem.Addr, n int) ([]byte, sim.Cycle) {
	out := make([]byte, n)
	lat := d.ReadInto(arrival, addr, out)
	return out, lat
}

// ReadInto is Read without the allocation: the caller supplies the
// destination (the cache fill path passes the line buffer directly).
func (d *Device) ReadInto(arrival sim.Cycle, addr mem.Addr, out []byte) sim.Cycle {
	d.stats.Reads++
	if arrival > d.now {
		d.now = arrival
	}
	lat := d.cfg.ReadLatency + readInterferencePerEntry*sim.Cycle(d.channel(addr).Occupancy(arrival))
	d.PeekInto(addr, out)
	return lat
}

// readInterferencePerEntry is the extra read latency per write already
// queued on the channel (bank conflicts + bus turnaround).
const readInterferencePerEntry sim.Cycle = 2

// Peek returns durable bytes with no timing or accounting; recovery and
// test verification use it.
func (d *Device) Peek(addr mem.Addr, n int) []byte {
	out := make([]byte, n)
	d.PeekInto(addr, out)
	return out
}

// PeekInto fills out with durable bytes starting at addr: the media
// contents, overlaid with any dirty on-PM buffer bytes shadowing them.
func (d *Device) PeekInto(addr mem.Addr, out []byte) {
	for i := 0; i < len(out); {
		a := addr + mem.Addr(i)
		off := a.LineOffset()
		n := mem.LineSize - off
		if rem := len(out) - i; n > rem {
			n = rem
		}
		seg := out[i : i+n]
		if me := d.media.get(a.Line()); me != nil {
			copy(seg, me.data[off:off+n])
		} else {
			clear(seg)
		}
		i += n
	}
	if !d.cfg.Coalescing || d.buf.n == 0 {
		return
	}
	bls := mem.Addr(d.cfg.BufLineSize)
	first := addr &^ (bls - 1)
	last := (addr + mem.Addr(len(out)) - 1) &^ (bls - 1)
	for base := first; base <= last; base += bls {
		bl := d.buf.get(base)
		if bl == nil {
			continue
		}
		lo, hi := addr, addr+mem.Addr(len(out))
		if lo < base {
			lo = base
		}
		if hi > base+bls {
			hi = base + bls
		}
		for a := lo; a < hi; a++ {
			if off := int(a - base); bl.isDirty(off) {
				out[a-addr] = bl.data[off]
			}
		}
	}
}

// PeekWord returns the durable 8-byte word at addr.
func (d *Device) PeekWord(addr mem.Addr) mem.Word {
	// Direct word path: one media probe plus a masked buffer overlay —
	// the commit-durability audit peeks every committed word, so the
	// general byte loop of PeekInto is too slow here. A word is always
	// inside one media line and one buffer line (both are 64 B-aligned
	// and a multiple of the word size), and its 8 dirty bits sit inside
	// one bitmap word.
	addr = addr.Word()
	var w uint64
	if me := d.media.get(addr.Line()); me != nil {
		w = binary.LittleEndian.Uint64(me.data[addr.LineOffset():])
	}
	if !d.cfg.Coalescing || d.buf.n == 0 {
		return mem.Word(w)
	}
	base := addr &^ (mem.Addr(d.cfg.BufLineSize) - 1)
	if bl := d.buf.get(base); bl != nil {
		off := int(addr - base)
		if dm := uint8(bl.dirty[off>>6] >> (off & 63)); dm != 0 {
			m := byteMask[dm]
			w = (w &^ m) | (binary.LittleEndian.Uint64(bl.data[off:]) & m)
		}
	}
	return mem.Word(w)
}

// PokeWord writes a word durably with no timing (recovery and workload
// setup use it; that traffic is not part of the evaluated run). Like
// Populate it keeps the on-PM buffer coherent — dirty buffer bytes
// shadowing the word are overwritten too — so recovery writes are never
// shadowed by stale pre-crash buffer contents. The direct word path
// matters: workload setup pokes every word of its dataset, so the
// general byte loop of Populate was the fleet's hottest setup cost.
func (d *Device) PokeWord(addr mem.Addr, w mem.Word) {
	addr = addr.Word()
	me := d.media.getOrInsert(addr.Line())
	binary.LittleEndian.PutUint64(me.data[addr.LineOffset():], uint64(w))
	if !d.cfg.Coalescing || d.buf.n == 0 {
		return
	}
	base := addr &^ (mem.Addr(d.cfg.BufLineSize) - 1)
	if bl := d.buf.get(base); bl != nil {
		off := int(addr - base)
		if dm := uint8(bl.dirty[off>>6] >> (off & 63)); dm != 0 {
			m := byteMask[dm]
			old := binary.LittleEndian.Uint64(bl.data[off:])
			binary.LittleEndian.PutUint64(bl.data[off:], (old&^m)|(uint64(w)&m))
		}
	}
}

// Erase zeroes [addr, addr+n) with no timing accounting — log-region
// truncation, which is a pointer update in real hardware. Buffer lines
// overlapping the range are first drained to the media (their writes were
// real and count normally), so a later recovery scan can neither see stale
// records shadowed in the buffer nor lose traffic accounting.
func (d *Device) Erase(addr mem.Addr, n int) {
	if d.cfg.Coalescing {
		bls := mem.Addr(d.cfg.BufLineSize)
		first := addr &^ (bls - 1)
		last := (addr + mem.Addr(n) - 1) &^ (bls - 1)
		for base := first; base <= last; base += bls {
			if bl := d.buf.get(base); bl != nil {
				d.flushBufLine(bl)
			}
		}
	}
	var zero [mem.LineSize]byte
	for n > 0 {
		k := min(n, len(zero))
		d.Populate(addr, zero[:k])
		addr += mem.Addr(k)
		n -= k
	}
}

// DrainAll flushes every on-PM buffer line to the media in address
// order, finalizing the media-write accounting at the end of a run.
func (d *Device) DrainAll() {
	for d.buf.n > 0 {
		var next *bufLine
		for i := range d.buf.pool {
			if !d.buf.used[i] {
				continue
			}
			if bl := &d.buf.pool[i]; next == nil || bl.base < next.base {
				next = bl
			}
		}
		d.flushBufLine(next)
	}
}

// PowerCycle prepares the device for a post-crash machine incarnation
// that restarts its simulated clock at zero: buffered lines drain to the
// media (the on-PM buffer rides the same stored energy as the WPQ ADR
// drain), WPQ timing state clears so finish times from the previous
// life cannot delay new entries, any armed crash-energy budget is
// disarmed, and the telemetry recorder detaches (the next incarnation
// attaches its own). Media contents, wear, and cumulative statistics
// survive — it is the same persistent device.
func (d *Device) PowerCycle() {
	d.DrainAll()
	for _, q := range d.wpq {
		q.Reset()
	}
	d.energy = crashEnergy{}
	d.tel = nil
}

// Wear describes the media write distribution across 64 B lines.
type Wear struct {
	LinesTouched int64
	MaxWrites    int64    // writes to the hottest line
	MeanWrites   float64  // mean writes over touched lines
	HottestLine  mem.Addr // address of the hottest line
}

// WearStats summarizes how evenly the media writes spread — the endurance
// hotspot view behind the paper's lifetime argument: a line written 100x
// more often than average dies 100x sooner (pre wear-leveling).
func (d *Device) WearStats() Wear {
	var w Wear
	var total int64
	for ref := int32(1); ref <= int32(d.media.n); ref++ {
		e := d.media.at(ref)
		if e.wear == 0 {
			continue
		}
		total += e.wear
		w.LinesTouched++
		if e.wear > w.MaxWrites {
			w.MaxWrites = e.wear
			w.HottestLine = e.line
		}
	}
	if w.LinesTouched > 0 {
		w.MeanWrites = float64(total) / float64(w.LinesTouched)
	}
	return w
}

// String summarizes the device for debugging.
func (d *Device) String() string {
	var accepted int64
	for _, q := range d.wpq {
		accepted += q.Accepted()
	}
	return fmt.Sprintf("pm.Device{lines=%d bufLines=%d channels=%d wpqAccepted=%d mediaWrites=%d}",
		d.media.n, d.buf.n, len(d.wpq), accepted, d.stats.MediaWrites)
}
