package trace

import (
	"bytes"
	"strings"
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

func TestWriterReaderRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ops := []struct {
		core int
		op   sim.Op
	}{
		{0, sim.Op{Kind: sim.OpTxBegin}},
		{0, sim.Op{Kind: sim.OpStore, Addr: 0x1000, Data: 0xABCD}},
		{1, sim.Op{Kind: sim.OpLoad, Addr: 0x2008}},
		{0, sim.Op{Kind: sim.OpTxEnd}},
		{1, sim.Op{Kind: sim.OpCompute, Cycles: 77}},
	}
	for _, o := range ops {
		w.Op(o.core, o.op)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Ops() != int64(len(ops)) {
		t.Errorf("Ops = %d", w.Ops())
	}

	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cores() != 2 {
		t.Fatalf("cores = %d", tr.Cores())
	}
	if tr.Ops() != len(ops) {
		t.Fatalf("ops = %d", tr.Ops())
	}
	if tr.Transactions() != 1 {
		t.Errorf("transactions = %d", tr.Transactions())
	}
	c0 := tr.PerCore[0]
	if len(c0) != 3 || c0[1].Kind != sim.OpStore || c0[1].Addr != 0x1000 || c0[1].Data != 0xABCD {
		t.Errorf("core 0 stream wrong: %+v", c0)
	}
	c1 := tr.PerCore[1]
	if len(c1) != 2 || c1[0].Addr != 0x2008 || c1[1].Cycles != 77 {
		t.Errorf("core 1 stream wrong: %+v", c1)
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nB 0\nE 0\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops() != 2 {
		t.Errorf("ops = %d", tr.Ops())
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"X 0",       // unknown record
		"B",         // missing core
		"B x",       // bad core
		"L 0",       // load without addr
		"L 0 zz",    // bad addr
		"S 0 10",    // store without data
		"S 0 10 zz", // bad data
		"C 0 -5",    // negative cycles
		"C 0 q",     // bad cycles
		"C 0",       // compute without cycles
		"B 0 extra", // too many fields
	}
	for _, in := range bad {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed line %q", in)
		}
	}
}

func TestProgramReplays(t *testing.T) {
	in := "B 0\nS 0 100 7\nL 0 100\nE 0\nC 0 10\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	exec := &countingExec{}
	eng := sim.NewEngine(exec, 1, 1)
	eng.RunStreams([]sim.OpStream{tr.Stream(0)})
	if exec.n != 5 {
		t.Errorf("replayed %d ops, want 5", exec.n)
	}
	// A missing core replays as an empty stream.
	exec2 := &countingExec{}
	sim.NewEngine(exec2, 1, 1).RunStreams([]sim.OpStream{tr.Stream(5)})
	if exec2.n != 0 {
		t.Errorf("missing core replayed %d ops, want 0", exec2.n)
	}
}

type countingExec struct{ n int }

func (e *countingExec) Exec(core int, op sim.Op, now sim.Cycle) sim.Result {
	e.n++
	return sim.Result{Latency: 1}
}

func (e *countingExec) Peek(int, mem.Addr) mem.Word { return 0 }
