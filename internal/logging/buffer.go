package logging

import "silo/internal/mem"

// Buffer is one core's battery-backed log buffer (§III-B): a small FIFO of
// log entries, each flanked by a 64-bit hardware comparator so address
// matching happens in parallel in under a nanosecond. The default capacity
// is 20 entries (680 B per core, Table I), sized in §VI-D so the largest
// observed post-reduction write set (Hash) fits.
//
// The buffer is a persistence domain: its contents survive a crash long
// enough to be flushed by the battery (§III-G).
type Buffer struct {
	cap     int
	entries []Entry // FIFO order: entries[0] is oldest
}

// DefaultBufferEntries is the per-core log buffer capacity from §VI-D.
const DefaultBufferEntries = 20

// NewBuffer returns a buffer with the given entry capacity.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{cap: capacity}
}

// Cap returns the entry capacity.
func (b *Buffer) Cap() int { return b.cap }

// Len returns the number of live entries.
func (b *Buffer) Len() int { return len(b.entries) }

// Full reports whether an append would overflow.
func (b *Buffer) Full() bool { return len(b.entries) >= b.cap }

// Bytes returns the on-chip footprint of the live entries.
func (b *Buffer) Bytes() int { return len(b.entries) * OnChipEntryBytes }

// Match returns the index of the entry logging the same word address
// (the parallel comparator array), or -1. Merging never crosses threads
// or transactions (§III-C), so the caller's buffer-per-core/tx discipline
// makes an address match sufficient.
func (b *Buffer) Match(addr mem.Addr) int {
	w := addr.Word()
	for i := range b.entries {
		if b.entries[i].Addr == w {
			return i
		}
	}
	return -1
}

// MatchLine invokes fn on every entry whose logged word lies in the
// cacheline at la — the flush-bit comparison path of §III-D (the addr
// field shifted to line granularity).
func (b *Buffer) MatchLine(la mem.Addr, fn func(e *Entry)) {
	la = la.Line()
	for i := range b.entries {
		if b.entries[i].Addr.Line() == la {
			fn(&b.entries[i])
		}
	}
}

// Append adds e, merging into an existing entry for the same word if one
// exists: the existing entry keeps its (oldest) old data and takes e's
// (newest) new data, which is sufficient to recover to a none-or-all
// state (§III-C). A merge also clears the entry's flush-bit: the entry
// now holds data newer than whatever cacheline eviction reached PM, so
// the new data must be flushed after commit (and crash-flushed as redo)
// again — without this, a store following an eviction of the same word
// would be silently dropped on commit. It reports whether a merge
// happened. Appending to a full buffer without a prior merge panics —
// the caller must evict first.
func (b *Buffer) Append(e Entry) (merged bool) {
	if i := b.Match(e.Addr); i >= 0 {
		b.entries[i].New = e.New
		b.entries[i].FlushBit = e.FlushBit
		return true
	}
	if b.Full() {
		panic("logging: append to full buffer; evict first")
	}
	b.entries = append(b.entries, e)
	return false
}

// Push appends without comparator matching (merge-disabled ablation);
// the buffer may then hold several entries for one word, in store order.
func (b *Buffer) Push(e Entry) {
	if b.Full() {
		panic("logging: push to full buffer; evict first")
	}
	b.entries = append(b.entries, e)
}

// EvictOldest removes up to n entries in FIFO order — the batched
// overflow eviction of §III-F — and returns them appended to dst, storage
// the caller owns (pass dst[:0] to reuse it).
func (b *Buffer) EvictOldest(dst []Entry, n int) []Entry {
	if n > len(b.entries) {
		n = len(b.entries)
	}
	dst = append(dst, b.entries[:n]...)
	b.entries = append(b.entries[:0], b.entries[n:]...)
	return dst
}

// Entries returns the live entries in FIFO order (shared backing array;
// callers must not mutate unless they own the buffer).
func (b *Buffer) Entries() []Entry { return b.entries }

// Entry returns a pointer to the i-th oldest entry.
func (b *Buffer) Entry(i int) *Entry { return &b.entries[i] }

// Reset deallocates all entries (transaction commit, §III-B).
func (b *Buffer) Reset() { b.entries = b.entries[:0] }
