// Package trace records and replays memory-operation traces of simulated
// runs. A trace captures each core's exact operation stream (transaction
// boundaries, loads, stores with data, compute gaps), which makes runs
// portable artifacts: the same trace can be replayed under every logging
// design, pinning the instruction streams while only the design varies —
// the methodology gem5 checkpoint traces serve in the original evaluation.
//
// The format is line-oriented text, one operation per line:
//
//	B <core>                    Tx_begin
//	E <core>                    Tx_end
//	L <core> <addr-hex>         load word
//	S <core> <addr-hex> <data-hex>  store word
//	C <core> <cycles>           compute
//
// Lines beginning with '#' are comments.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"silo/internal/mem"
	"silo/internal/sim"
)

// Writer serializes operations as they execute. It is safe for use from
// the machine's Exec hook (single-threaded by construction).
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Op records one operation for a core.
func (t *Writer) Op(core int, op sim.Op) {
	if t.err != nil {
		return
	}
	switch op.Kind {
	case sim.OpTxBegin:
		_, t.err = fmt.Fprintf(t.w, "B %d\n", core)
	case sim.OpTxEnd:
		_, t.err = fmt.Fprintf(t.w, "E %d\n", core)
	case sim.OpLoad:
		_, t.err = fmt.Fprintf(t.w, "L %d %x\n", core, uint64(op.Addr))
	case sim.OpStore:
		_, t.err = fmt.Fprintf(t.w, "S %d %x %x\n", core, uint64(op.Addr), uint64(op.Data))
	case sim.OpCompute:
		_, t.err = fmt.Fprintf(t.w, "C %d %d\n", core, op.Cycles)
	}
	t.n++
}

// Flush drains buffered output and returns the first error encountered.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Ops returns the number of operations recorded.
func (t *Writer) Ops() int64 { return t.n }

// Trace is a parsed trace: per-core operation streams.
type Trace struct {
	PerCore [][]sim.Op
}

// Cores returns the number of cores with operations.
func (t *Trace) Cores() int { return len(t.PerCore) }

// Ops returns the total operation count.
func (t *Trace) Ops() int {
	n := 0
	for _, ops := range t.PerCore {
		n += len(ops)
	}
	return n
}

// Transactions returns committed-transaction counts per core (Tx_end
// records).
func (t *Trace) Transactions() int {
	n := 0
	for _, ops := range t.PerCore {
		for _, op := range ops {
			if op.Kind == sim.OpTxEnd {
				n++
			}
		}
	}
	return n
}

// Read parses a trace.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("trace: line %d: too few fields", lineNo)
		}
		core, err := strconv.Atoi(fields[1])
		if err != nil || core < 0 || core > 1<<16 {
			return nil, fmt.Errorf("trace: line %d: bad core %q", lineNo, fields[1])
		}
		for core >= len(t.PerCore) {
			t.PerCore = append(t.PerCore, nil)
		}
		var op sim.Op
		switch fields[0] {
		case "B", "E":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: %s takes only a core", lineNo, fields[0])
			}
			if fields[0] == "B" {
				op.Kind = sim.OpTxBegin
			} else {
				op.Kind = sim.OpTxEnd
			}
		case "L":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: load needs addr", lineNo)
			}
			a, err := strconv.ParseUint(fields[2], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad addr: %v", lineNo, err)
			}
			op = sim.Op{Kind: sim.OpLoad, Addr: mem.Addr(a)}
		case "S":
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace: line %d: store needs addr and data", lineNo)
			}
			a, err := strconv.ParseUint(fields[2], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad addr: %v", lineNo, err)
			}
			v, err := strconv.ParseUint(fields[3], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad data: %v", lineNo, err)
			}
			op = sim.Op{Kind: sim.OpStore, Addr: mem.Addr(a), Data: mem.Word(v)}
		case "C":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: compute needs cycles", lineNo)
			}
			c, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("trace: line %d: bad cycles", lineNo)
			}
			op = sim.Op{Kind: sim.OpCompute, Cycles: sim.Cycle(c)}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", lineNo, fields[0])
		}
		t.PerCore[core] = append(t.PerCore[core], op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// Stream returns a native OpStream replaying core's operation stream —
// a slice cursor with no program frame at all.
func (t *Trace) Stream(core int) sim.OpStream {
	if core < len(t.PerCore) {
		return sim.NewOpsStream(t.PerCore[core])
	}
	return sim.NewOpsStream(nil)
}
