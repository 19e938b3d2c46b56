package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Run is the
// sample, round or campaign index the span belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Run     int    `json:"run"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, so untraced runs pay one branch per span.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span and returns its id (-1 when l is nil).
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	return l.addRun(name, parent, -1, start, end)
}

func (l *spanLog) addRun(name string, parent, run int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Run: run,
		StartNs: start.Sub(l.origin).Nanoseconds(), EndNs: end.Sub(l.origin).Nanoseconds()})
	return id
}

// open records a span whose end is not known yet; close it with end.
func (l *spanLog) open(name string, parent, run int, start time.Time) int {
	return l.addRun(name, parent, run, start, start)
}

func (l *spanLog) end(id int, end time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].EndNs = end.Sub(l.origin).Nanoseconds()
	l.mu.Unlock()
}

func (l *spanLog) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, l.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelf prints, per span name, the span count, total time and self
// time: each span's duration minus the part of its interval that its
// children cover (children of one fleet chunk run in parallel, so their
// union counts, not their sum).
func (l *spanLog) printSelf(w io.Writer) {
	type agg struct {
		n           int
		total, self int64
	}
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*agg)
	var names []string
	for i, s := range l.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.EndNs - s.StartNs
		a.n++
		a.total += d
		a.self += d - covered(children[i])
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "# span %-10s n=%-6d total_ms=%.1f self_ms=%.1f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.StartNs > end {
			total += s.EndNs - s.StartNs
			end = s.EndNs
		} else if s.EndNs > end {
			total += s.EndNs - end
			end = s.EndNs
		}
	}
	return total
}
