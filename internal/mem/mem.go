// Package mem defines the basic memory geometry shared by every component
// of the simulated machine: 64-bit physical addresses, 8-byte words and
// 64-byte cachelines, plus the split of the persistent-memory physical
// address space into a data region and a log region.
//
// All simulator components (caches, memory controller, PM device, logging
// hardware) agree on these constants, mirroring the configuration in
// Table II of the paper (64 B lines, 64-bit CPU, 16 GB PM).
package mem

import "fmt"

const (
	// WordSize is the granularity of a CPU store and of the log data
	// fields in a Silo log entry (Fig. 6): one 64-bit word.
	WordSize = 8

	// LineSize is the cacheline size used throughout the hierarchy.
	LineSize = 64

	// WordsPerLine is the number of words in one cacheline.
	WordsPerLine = LineSize / WordSize

	// LineShift is log2(LineSize).
	LineShift = 6

	// WordShift is log2(WordSize).
	WordShift = 3
)

// FibMul is 2^64 / phi, the multiplicative (Fibonacci) hash constant the
// small hashed address tables (the on-PM buffer, the per-transaction
// pending writes) use.
const FibMul = 0x9E3779B97F4A7C15

// Addr is a 64-bit physical address. Only the low 48 bits are meaningful,
// matching the 48-bit addr field of the log entry (Fig. 6).
type Addr uint64

// AddrMask48 masks an address down to the 48 bits stored in log entries.
const AddrMask48 = (Addr(1) << 48) - 1

// Line returns the address of the cacheline containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// Word returns the address of the word containing a.
func (a Addr) Word() Addr { return a &^ (WordSize - 1) }

// LineOffset returns the byte offset of a within its cacheline.
func (a Addr) LineOffset() int { return int(a & (LineSize - 1)) }

// WordIndex returns the index of the word containing a within its line.
func (a Addr) WordIndex() int { return int(a&(LineSize-1)) >> WordShift }

// IsWordAligned reports whether a is 8-byte aligned.
func (a Addr) IsWordAligned() bool { return a&(WordSize-1) == 0 }

// IsLineAligned reports whether a is 64-byte aligned.
func (a Addr) IsLineAligned() bool { return a&(LineSize-1) == 0 }

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%012x", uint64(a)) }

// Word is the value of one 8-byte memory word.
type Word uint64

// Layout describes the physical address map of the PM device. The data
// region holds application data; the log region holds the per-thread
// distributed log areas (§III-B, "Log Region"). The two regions never
// overlap, so the recovery code can tell log writes from data writes.
type Layout struct {
	DataBase Addr // first byte of the data region
	DataSize uint64
	LogBase  Addr // first byte of the log region
	LogSize  uint64
}

// DefaultLayout mirrors the paper's 16 GB PM: we reserve the top 256 MB
// as the log region. The simulated media is sparse, so the nominal sizes
// cost nothing until touched.
func DefaultLayout() Layout {
	const total = 16 << 30
	const logSize = 256 << 20
	return Layout{
		DataBase: 0,
		DataSize: total - logSize,
		LogBase:  Addr(total - logSize),
		LogSize:  logSize,
	}
}

// InData reports whether a falls inside the data region.
func (l Layout) InData(a Addr) bool {
	return a >= l.DataBase && uint64(a-l.DataBase) < l.DataSize
}

// InLog reports whether a falls inside the log region.
func (l Layout) InLog(a Addr) bool {
	return a >= l.LogBase && uint64(a-l.LogBase) < l.LogSize
}

// ThreadLogArea returns the base address and size of thread tid's private
// log area. Silo uses a distributed log scheme in which each thread owns
// a contiguous area to avoid cross-thread contention on log writes.
func (l Layout) ThreadLogArea(tid, nthreads int) (Addr, uint64) {
	if nthreads <= 0 {
		nthreads = 1
	}
	per := l.LogSize / uint64(nthreads)
	per &^= LineSize - 1 // keep areas line-aligned
	return l.LogBase + Addr(uint64(tid)*per), per
}
