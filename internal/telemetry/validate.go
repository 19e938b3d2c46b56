package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceStats summarizes a validated Chrome trace.
type TraceStats struct {
	Events   int
	Tracks   int            // distinct tids seen on non-metadata events
	Counters int            // distinct counter-series names
	ByPhase  map[string]int // event count per ph
}

// traceEvent mirrors the subset of the Chrome trace-event schema the
// validator cares about.
type traceEvent struct {
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   *float64        `json:"ts"`
	Name string          `json:"name"`
	Args json.RawMessage `json:"args"`
}

var validPhases = map[string]bool{
	"B": true, "E": true, "X": true, "i": true, "I": true,
	"C": true, "M": true, "b": true, "e": true, "n": true,
}

// ValidateChromeTrace checks that r holds a well-formed Chrome
// trace-event JSON array with (a) only known phase codes, (b) per-track
// nondecreasing timestamps for duration/instant events, (c) per-series
// nondecreasing timestamps for counter events, and (d) balanced B/E
// nesting per track (slices still open at EOF are reported as an error —
// the writer closes them on crash). Returns summary stats on success.
func ValidateChromeTrace(r io.Reader) (TraceStats, error) {
	st := TraceStats{ByPhase: make(map[string]int)}
	dec := json.NewDecoder(r)

	tok, err := dec.Token()
	if err != nil {
		return st, fmt.Errorf("trace: reading opening token: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return st, fmt.Errorf("trace: expected a JSON array, got %v", tok)
	}

	lastTS := make(map[int]float64)           // per tid (B/E/X/i)
	lastCounterTS := make(map[string]float64) // per counter-series name
	openSlices := make(map[int]int)           // per tid B/E nesting depth
	tracks := make(map[int]bool)
	counters := make(map[string]bool)

	for dec.More() {
		var e traceEvent
		if err := dec.Decode(&e); err != nil {
			return st, fmt.Errorf("trace: event %d: %w", st.Events, err)
		}
		st.Events++
		st.ByPhase[e.Ph]++
		if !validPhases[e.Ph] {
			return st, fmt.Errorf("trace: event %d (%q): unknown phase %q", st.Events-1, e.Name, e.Ph)
		}
		if e.Ph == "M" {
			continue // metadata: no ts/ordering requirements
		}
		if e.Ts == nil {
			return st, fmt.Errorf("trace: event %d (%q, ph=%s): missing ts", st.Events-1, e.Name, e.Ph)
		}
		if e.Pid == nil || e.Tid == nil {
			return st, fmt.Errorf("trace: event %d (%q): missing pid/tid", st.Events-1, e.Name)
		}
		tid, ts := *e.Tid, *e.Ts
		tracks[tid] = true
		switch e.Ph {
		case "C":
			counters[e.Name] = true
			if last, ok := lastCounterTS[e.Name]; ok && ts < last {
				return st, fmt.Errorf("trace: counter %q: ts %.4f < previous %.4f", e.Name, ts, last)
			}
			lastCounterTS[e.Name] = ts
		default:
			if last, ok := lastTS[tid]; ok && ts < last {
				return st, fmt.Errorf("trace: track %d: event %q ts %.4f < previous %.4f", tid, e.Name, ts, last)
			}
			lastTS[tid] = ts
			switch e.Ph {
			case "B":
				openSlices[tid]++
			case "E":
				openSlices[tid]--
				if openSlices[tid] < 0 {
					return st, fmt.Errorf("trace: track %d: E without matching B at ts %.4f", tid, ts)
				}
			}
		}
	}
	if tok, err = dec.Token(); err != nil {
		return st, fmt.Errorf("trace: reading closing token: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != ']' {
		return st, fmt.Errorf("trace: expected array close, got %v", tok)
	}
	for tid, n := range openSlices {
		if n != 0 {
			return st, fmt.Errorf("trace: track %d: %d slice(s) still open at end of trace", tid, n)
		}
	}
	st.Tracks = len(tracks)
	st.Counters = len(counters)
	return st, nil
}
