package telemetry

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

func TestPromNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"commits":             "commits",
		"commit-stall-cycles": "commit_stall_cycles",
		"wpq.depth":           "wpq_depth",
		"9lives":              "_9lives",
		"a:b_c":               "a:b_c",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	snaps := []LabeledSnapshot{
		{Metrics: []MetricValue{
			{Name: "serve_runs_started", Kind: "counter", Value: 2},
		}},
		{
			Labels: []Label{{Name: "run", Value: "1"}, {Name: "design", Value: `Si"lo`}},
			Metrics: []MetricValue{
				{Name: "commits", Kind: "counter", Value: 4000},
				{Name: "wpq-depth", Kind: "gauge", Value: 3, Max: 9},
				{Name: "commit-stall", Kind: "histogram", Value: 10, Max: 7, P50: 2, P99: 6.5, Mean: 2.25},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, "silo_", snaps); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE silo_commits counter\n",
		`silo_commits{run="1",design="Si\"lo"} 4000` + "\n",
		"# TYPE silo_wpq_depth gauge\n",
		"# TYPE silo_wpq_depth_max gauge\n",
		`silo_wpq_depth_max{run="1",design="Si\"lo"} 9` + "\n",
		"# TYPE silo_commit_stall_count counter\n",
		"# TYPE silo_commit_stall_p99 gauge\n",
		`silo_commit_stall_p99{run="1",design="Si\"lo"} 6.5` + "\n",
		`silo_commit_stall_mean{run="1",design="Si\"lo"} 2.25` + "\n",
		"silo_serve_runs_started 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exactly one # TYPE line per family.
	if n := strings.Count(out, "# TYPE silo_commits "); n != 1 {
		t.Errorf("silo_commits TYPE lines = %d, want 1", n)
	}
}

// TestSnapshotExpositionByteStable is the determinism gate: the same
// readings listed in different orders render byte-identical exposition
// text, because families are emitted name-sorted.
func TestSnapshotExpositionByteStable(t *testing.T) {
	readings := map[string]MetricValue{
		"commits":     {Name: "commits", Kind: "counter", Value: 42},
		"media-bytes": {Name: "media-bytes", Kind: "counter", Value: 9000},
		"wpq-depth":   {Name: "wpq-depth", Kind: "gauge", Value: 7, Max: 7},
		"stall":       {Name: "stall", Kind: "histogram", Value: 1, Max: 5, P50: 5, P99: 5, Mean: 5},
	}
	render := func(order []string) string {
		snap := make([]MetricValue, 0, len(order))
		for _, name := range order {
			snap = append(snap, readings[name])
		}
		var buf bytes.Buffer
		labels := []Label{{Name: "run", Value: "7"}}
		if err := WriteMetrics(&buf, "silo_", []LabeledSnapshot{{Labels: labels, Metrics: snap}}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]string{"commits", "media-bytes", "wpq-depth", "stall"})
	b := render([]string{"stall", "wpq-depth", "media-bytes", "commits"})
	if a != b {
		t.Fatalf("exposition not byte-stable:\n--- A ---\n%s--- B ---\n%s", a, b)
	}
	// Families are name-sorted regardless of input order.
	var names []string
	for _, line := range strings.Split(a, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(name)[0])
		}
	}
	if len(names) != 9 || !sort.StringsAreSorted(names) {
		t.Fatalf("families = %v, want 9 name-sorted", names)
	}
}
