package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// ringSink retains every event, for assertions.
type ringSink struct{ events []Event }

func (r *ringSink) Event(e Event) { r.events = append(r.events, e) }

func TestNilRecorderIsInertAndAllocFree(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.TxBegin(0, 10, 1)
		r.TxCommit(0, 20, 5, 3, 10)
		r.WPQWrite(1, 30, 4, 2, 64)
		r.LogBufOcc(0, 40, 7, 20)
		r.LLCEvict(50, 0x1000)
		r.PMBufWriteback(60, 0x2000, 64, 12, 8)
	})
	if allocs != 0 {
		t.Errorf("disabled probe path allocates %.1f per run, want 0", allocs)
	}
}

func TestWithGraftsSinkOntoNilRecorder(t *testing.T) {
	sink := &ringSink{}
	var base *Recorder
	r := base.With(sink)
	if !r.Enabled() {
		t.Fatal("grafted recorder not enabled")
	}
	r.TxBegin(2, 100, 0)
	if len(sink.events) != 1 || sink.events[0].Kind != KTxBegin || sink.events[0].Core != 2 {
		t.Fatalf("events = %+v", sink.events)
	}
	// With on a live recorder fans out to both sinks.
	sink2 := &ringSink{}
	r2 := r.With(sink2)
	r2.Crash(200, 3, 40)
	if len(sink.events) != 2 || len(sink2.events) != 1 {
		t.Errorf("fan-out: sink=%d sink2=%d", len(sink.events), len(sink2.events))
	}
}

func TestEventStringRendering(t *testing.T) {
	e := Event{Cycle: 42, Kind: KNote, Note: "hello world"}
	if e.String() != "hello world" {
		t.Errorf("KNote renders %q", e.String())
	}
	c := Event{Cycle: 7, Kind: KCrash, A: 3, B: 99}
	if got := c.String(); got != "inject-crash: now=7 commits=3 ops=99" {
		t.Errorf("KCrash renders %q", got)
	}
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		s := Event{Kind: k, Note: "n"}.String()
		if s == "" {
			t.Errorf("kind %v renders empty", k)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	r := NewRecorder(ct)

	r.TxBegin(0, 100, 0)
	r.LogBufOcc(0, 150, 3, 20)
	r.WPQWrite(0, 180, 2, 5, 64)
	r.LLCEvict(200, 0x4000)
	r.TxCommit(0, 300, 12, 4, 200)
	r.TxBegin(1, 310, 0)
	r.PMBufOpen(320, 0x8000, 8)
	r.PMBufWriteback(400, 0x8000, 56, 8, 7)
	r.Crash(500, 1, 10) // core 1's tx left open: Close must end it
	if err := ct.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, buf.String())
	}
	if st.Events == 0 || st.Tracks < 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.Counters < 2 {
		t.Errorf("want wpq-depth and logbuf-occupancy counter series, got %d: %+v", st.Counters, st)
	}
	if st.ByPhase["B"] != st.ByPhase["E"] {
		t.Errorf("unbalanced slices after Close: %+v", st.ByPhase)
	}
	for _, want := range []string{`"wpq-depth ch0"`, `"logbuf-occupancy core0"`, `"CRASH"`, `"thread_name"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace lacks %s", want)
		}
	}
}

func TestChromeTraceEmptyIsValid(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	if err := ct.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, buf.String())
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not an array":    `{"ph":"i"}`,
		"unknown phase":   `[{"ph":"Q","pid":1,"tid":0,"ts":1,"name":"x"}]`,
		"missing ts":      `[{"ph":"i","pid":1,"tid":0,"name":"x"}]`,
		"backwards track": `[{"ph":"i","pid":1,"tid":0,"ts":5,"name":"x"},{"ph":"i","pid":1,"tid":0,"ts":4,"name":"y"}]`,
		"unmatched E":     `[{"ph":"E","pid":1,"tid":0,"ts":1,"name":"tx"}]`,
		"open B at EOF":   `[{"ph":"B","pid":1,"tid":0,"ts":1,"name":"tx"}]`,
		"backwards counter": `[{"ph":"C","pid":1,"tid":0,"ts":5,"name":"d","args":{"v":1}},` +
			`{"ph":"C","pid":1,"tid":0,"ts":4,"name":"d","args":{"v":2}}]`,
	}
	for name, in := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Different tracks may interleave arbitrarily in global order.
	ok := `[{"ph":"i","pid":1,"tid":0,"ts":5,"name":"x"},{"ph":"i","pid":1,"tid":1,"ts":4,"name":"y"}]`
	if _, err := ValidateChromeTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("cross-track interleave rejected: %v", err)
	}
}

func TestIntervalSamplerFoldsWindows(t *testing.T) {
	s := NewIntervalSampler(100)
	r := NewRecorder(s)
	r.TxCommit(0, 10, 5, 3, 50)
	r.TxCommit(1, 90, 7, 2, 60)
	r.WPQWrite(0, 95, 9, 3, 64)
	// window 2 ([200,300)): gap window [100,200) must materialize empty
	r.LLCEvict(250, 0x1000)
	r.PMBufWriteback(260, 0x1000, 40, 24, 5)

	ws := s.Windows()
	if len(ws) != 3 {
		t.Fatalf("windows = %d: %+v", len(ws), ws)
	}
	w0 := ws[0]
	if w0.Commits != 2 || w0.CommitStall != 12 || w0.WPQWrites != 1 || w0.WPQPeakDepth != 9 {
		t.Errorf("w0 = %+v", w0)
	}
	if ws[1].Commits != 0 || ws[1].LLCEvicts != 0 {
		t.Errorf("gap window not empty: %+v", ws[1])
	}
	if ws[2].LLCEvicts != 1 || ws[2].MediaBytes != 40 || ws[2].DCWSuppressed != 24 {
		t.Errorf("w2 = %+v", ws[2])
	}
	tbl := s.Table()
	if !strings.Contains(tbl, "[0,100)") || !strings.Contains(tbl, "[200,300)") {
		t.Errorf("table lacks window labels:\n%s", tbl)
	}
}
