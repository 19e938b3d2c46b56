package workload

import (
	"fmt"
	"math/rand"

	"silo/internal/mem"
	"silo/internal/pmds"
	"silo/internal/pmheap"
	"silo/internal/sim"
)

// SweepWL is the large-transaction workload behind Fig. 14: each
// transaction writes a fixed number of distinct words, scattered across a
// private region, so the write set can be set to 1–16× the log buffer
// capacity and the overflow path is exercised deterministically. The
// write set is the words count alone: SetOpsPerTx does not apply to it.
type SweepWL struct {
	TxShape
	words   int // distinct words written per transaction
	lines   int // region size in cachelines
	regions []mem.Addr
}

// NewSweep builds a write-set sweep workload writing `words` distinct
// words per transaction over a region of `lines` cachelines per core.
func NewSweep(words, lines int) *SweepWL {
	if lines < words {
		lines = words
	}
	return &SweepWL{words: words, lines: lines}
}

// Name implements Workload.
func (w *SweepWL) Name() string { return fmt.Sprintf("Sweep%d", w.words) }

// Words returns the per-transaction write-set size in words.
func (w *SweepWL) Words() int { return w.words }

// Setup implements Workload.
func (w *SweepWL) Setup(direct pmds.Accessor, heap *pmheap.Heap, cores int, rng *rand.Rand) {
	w.regions = w.regions[:0]
	for c := 0; c < cores; c++ {
		base := heap.AllocLines(c, w.lines)
		for l := 0; l < w.lines; l++ {
			direct.Store(base+mem.Addr(l*mem.LineSize), mem.Word(l))
		}
		w.regions = append(w.regions, base)
	}
}

// Stream implements Workload: each transaction touches w.words distinct
// words, one per distinct cacheline, in a random permutation window.
func (w *SweepWL) Stream(core, txns int, rng *rand.Rand) sim.OpStream {
	base := w.regions[core]
	return transactions(core, txns, rng, func(ctx *sim.Ctx, i int) {
		start := ctx.Rand.Intn(w.lines)
		for k := 0; k < w.words; k++ {
			line := (start + k) % w.lines
			wordIdx := ctx.Rand.Intn(mem.WordsPerLine)
			addr := base + mem.Addr(line*mem.LineSize+wordIdx*mem.WordSize)
			ctx.Store(addr, mem.Word(i*w.words+k)+1)
		}
	})
}
