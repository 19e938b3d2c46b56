package logging

import (
	"fmt"

	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
	"silo/internal/telemetry"
)

// RegionWriter manages the distributed PM log region: each thread owns a
// contiguous log area addressed by head/tail registers (two 8 B flip-flop
// registers per core, Table I), so threads never contend on log writes.
//
// Records land on media sealed (see Seal): every record carries a
// sequence number and a CRC so a post-crash scan can tell a torn or
// corrupt record from a good one.
type RegionWriter struct {
	layout  mem.Layout
	dev     *pm.Device
	threads int
	head    []mem.Addr // next append address per thread
	base    []mem.Addr
	size    []uint64
	seq     []uint8 // next record sequence number per thread (mod 256)
	sealBuf []byte  // reused by seal; Device.Write copies what it is given

	// ImagesWritten counts serialized records appended during the run
	// (overflow traffic); crash-flush records are counted separately.
	ImagesWritten int64
	BytesWritten  int64

	// CrashImagesDropped / CrashImagesTorn count crash-flush records the
	// energy budget cut: dropped entirely, or left as a torn prefix.
	CrashImagesDropped int64
	CrashImagesTorn    int64

	// OnAppend, when non-nil, observes every run-time Append (thread id,
	// record count) — the hook fault injection uses to trigger a crash
	// mid-overflow-eviction. Crash flushes do not fire it.
	OnAppend func(tid, images int)

	// OnCrashAppend, when non-nil, observes every crash-flush append
	// *before* the energy budget is consumed — the intended flush, which
	// is what ordering and battery-sizing invariants are about (whether
	// the budget then tears it is a separate, legal fault).
	OnCrashAppend func(tid int, critical bool, images []Image)

	// Tel receives typed probe events (seal writes, crash-flush appends);
	// nil disables probes.
	Tel *telemetry.Recorder
}

// NewRegionWriter lays out one log area per thread.
func NewRegionWriter(dev *pm.Device, threads int) *RegionWriter {
	layout := dev.Config().Layout
	w := &RegionWriter{layout: layout, dev: dev, threads: threads,
		seq: make([]uint8, threads)}
	for t := 0; t < threads; t++ {
		b, s := layout.ThreadLogArea(t, threads)
		w.base = append(w.base, b)
		w.size = append(w.size, s)
		w.head = append(w.head, b)
	}
	return w
}

// Threads returns the number of per-thread log areas.
func (w *RegionWriter) Threads() int { return w.threads }

// seal serializes images sealed with consecutive sequence numbers into
// the writer's reusable buffer; the result is valid until the next seal.
func (w *RegionWriter) seal(tid int, images []Image) []byte {
	buf := w.sealBuf[:0]
	var scratch [MaxSealedBytes]byte
	for _, im := range images {
		n := im.Seal(scratch[:], w.seq[tid])
		w.seq[tid]++
		buf = append(buf, scratch[:n]...)
	}
	w.sealBuf = buf
	return buf
}

// Append serializes the images into thread tid's log area through the
// memory controller, arriving at `arrival`. Consecutive images are packed
// into one PM write request (the batched overflow flush of §III-F), so a
// batch of N undo entries lands in a single on-PM-buffer line. It returns
// the WPQ acceptance time of the write.
func (w *RegionWriter) Append(arrival sim.Cycle, tid int, images []Image) sim.Cycle {
	if len(images) == 0 {
		return arrival
	}
	buf := w.seal(tid, images)
	addr := w.reserve(tid, len(buf))
	accept, _ := w.dev.Write(arrival, addr, buf)
	w.ImagesWritten += int64(len(images))
	w.BytesWritten += int64(len(buf))
	w.Tel.LogSeal(tid, accept, len(images), len(buf))
	if w.OnAppend != nil {
		w.OnAppend(tid, len(images))
	}
	return accept
}

// AppendAtCrash writes images with battery power during a crash flush:
// durable, but outside the run's timing and write-traffic accounting
// (the paper's Fig. 11 measures failure-free traffic). The device's
// crash-energy budget applies: the flush can stop partway, dropping a
// suffix of records and tearing the last one at word granularity.
func (w *RegionWriter) AppendAtCrash(tid int, images []Image) {
	w.appendAtCrash(tid, images, false)
}

// AppendAtCrashCritical is AppendAtCrash for records the battery reserve
// guarantees — commit ID tuples and undo logs, the set recovery cannot
// be correct without and the one the paper's Table IV battery is sized
// for. They bypass the energy budget unless it is armed strict.
func (w *RegionWriter) AppendAtCrashCritical(tid int, images []Image) {
	w.appendAtCrash(tid, images, true)
}

func (w *RegionWriter) appendAtCrash(tid int, images []Image, critical bool) {
	w.Tel.LogCrashFlush(tid, 0, len(images), critical)
	if w.OnCrashAppend != nil {
		w.OnCrashAppend(tid, critical, images)
	}
	var scratch [MaxSealedBytes]byte
	for i, im := range images {
		n := im.Seal(scratch[:], w.seq[tid])
		allowed := w.dev.CrashAllowance(n, critical)
		if allowed >= n {
			addr := w.reserve(tid, n)
			w.dev.Populate(addr, scratch[:n])
			w.seq[tid]++
			continue
		}
		// Energy exhausted: the remaining records never leave the chip.
		if allowed > 0 {
			addr := w.reserve(tid, allowed)
			w.dev.Populate(addr, scratch[:allowed])
			w.CrashImagesTorn++
			w.CrashImagesDropped += int64(len(images) - i - 1)
		} else {
			w.CrashImagesDropped += int64(len(images) - i)
		}
		return
	}
}

func (w *RegionWriter) reserve(tid int, n int) mem.Addr {
	if uint64(w.head[tid]-w.base[tid])+uint64(n) > w.size[tid] {
		panic(fmt.Sprintf("logging: thread %d log area exhausted", tid))
	}
	a := w.head[tid]
	w.head[tid] += mem.Addr(n)
	return a
}

// Truncate deletes thread tid's logs — log deletion after a transaction
// commits with no crash (§III-F). The used bytes are invalidated so a
// later recovery scan stops at the area base; truncation is metadata work
// in real hardware and is not charged to the run's write traffic. The
// sequence counter restarts with the area.
func (w *RegionWriter) Truncate(tid int) {
	used := int(w.head[tid] - w.base[tid])
	if used > 0 {
		w.dev.Erase(w.base[tid], used)
	}
	w.head[tid] = w.base[tid]
	w.seq[tid] = 0
}

// Used returns the bytes currently appended in thread tid's log area.
func (w *RegionWriter) Used(tid int) uint64 { return uint64(w.head[tid] - w.base[tid]) }

// AreaSize returns the capacity of thread tid's log area.
func (w *RegionWriter) AreaSize(tid int) uint64 { return w.size[tid] }

// AreaBase returns the base address of thread tid's log area.
func (w *RegionWriter) AreaBase(tid int) mem.Addr { return w.base[tid] }

// ScanResult is the outcome of one thread's checked log scan.
type ScanResult struct {
	// Images holds the well-formed records in append order.
	Images []Image
	// Quarantined counts torn/corrupt records the scan refused to
	// interpret. The scan stops at the first one: everything after a
	// tear is unordered garbage the sequence discipline cannot vouch for.
	Quarantined int
}

// ScanChecked parses thread tid's log area from its base, verifying each
// record's CRC and sequence number, until the clean end of the log or a
// torn/corrupt record (which is quarantined and terminates the scan).
// Recovery uses it after a crash; the scan is self-terminating, so it
// does not depend on the volatile head register surviving the crash.
func (w *RegionWriter) ScanChecked(tid int) ScanResult {
	var res ScanResult
	addr := w.base[tid]
	end := w.base[tid] + mem.Addr(w.size[tid])
	// The head register only sizes the result (a sealed record is at
	// least a commit tuple long), so the scan appends without regrowing;
	// where the log ends is still decided by the records alone.
	if used := w.Used(tid); used > 0 {
		res.Images = make([]Image, 0, used/(CommitBytes+SealBytes))
	}
	seq := uint8(0)
	var raw [MaxSealedBytes]byte
	for addr < end {
		n := MaxSealedBytes
		if rem := int(end - addr); n > rem {
			n = rem
		}
		w.dev.PeekInto(addr, raw[:n])
		im, sz, status := UnsealImage(raw[:n], seq)
		if status == SealEnd {
			break
		}
		if status == SealCorrupt {
			res.Quarantined++
			break
		}
		res.Images = append(res.Images, im)
		addr += mem.Addr(sz)
		seq++
	}
	return res
}

// Scan returns thread tid's well-formed records in append order
// (ScanChecked without the quarantine count).
func (w *RegionWriter) Scan(tid int) []Image {
	return w.ScanChecked(tid).Images
}

// ScanAllChecked returns every thread's checked scan, indexed by thread.
func (w *RegionWriter) ScanAllChecked() []ScanResult {
	out := make([]ScanResult, w.threads)
	for t := 0; t < w.threads; t++ {
		out[t] = w.ScanChecked(t)
	}
	return out
}

// ScanAll returns every thread's records, indexed by thread.
func (w *RegionWriter) ScanAll() [][]Image {
	out := make([][]Image, w.threads)
	for t := 0; t < w.threads; t++ {
		out[t] = w.Scan(t)
	}
	return out
}
