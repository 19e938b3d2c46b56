package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Label is one Prometheus label pair attached to a snapshot's samples.
type Label struct {
	Name  string
	Value string
}

// MetricValue is one named reading in a metric snapshot.
type MetricValue struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge", "histogram"
	Value int64   `json:"value"`
	Max   int64   `json:"max,omitempty"`  // gauges: high-water; histograms: max sample
	P50   float64 `json:"p50,omitempty"`  // histograms only
	P99   float64 `json:"p99,omitempty"`  // histograms only
	Mean  float64 `json:"mean,omitempty"` // histograms only
}

// LabeledSnapshot pairs one metric snapshot with the labels that
// identify its origin (a run id, design, workload, ...). silo-serve's
// /metrics endpoint exposes one per run plus the server's own series.
type LabeledSnapshot struct {
	Labels  []Label
	Metrics []MetricValue
}

// promSample is one exposition line before rendering.
type promSample struct {
	labels string
	value  string
}

// promFamily collects the samples of one metric family so the exposition
// emits exactly one # TYPE line per family, as the text format requires.
type promFamily struct {
	typ     string // "counter" or "gauge"
	samples []promSample
}

// promName sanitizes a metric name into the Prometheus metric
// name charset: runs of characters outside [a-zA-Z0-9_:] become '_'
// ("commit-stall-cycles" → "commit_stall_cycles").
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set as `{a="x",b="y"}` with values escaped
// per the text format ("" for an empty set). Label order is preserved,
// so identical inputs render identical bytes.
func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value)
		fmt.Fprintf(&b, `%s="%s"`, promName(l.Name), v)
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", f), "0"), ".")
}

// WriteMetrics renders labeled metric snapshots in the Prometheus text
// exposition format (version 0.0.4). Every metric name is prefixed with
// prefix (conventionally "silo_"); gauges additionally expose their
// high-water mark as <name>_max, and histograms expand to _count, _max,
// _p50, _p99 and _mean series. Families are emitted sorted by metric
// name and samples in input order, so two identical snapshot sets
// produce byte-identical output.
func WriteMetrics(w io.Writer, prefix string, snaps []LabeledSnapshot) error {
	fams := make(map[string]*promFamily)
	add := func(name, typ string, labels []Label, value string) {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{typ: typ}
			fams[name] = f
		}
		f.samples = append(f.samples, promSample{labels: promLabels(labels), value: value})
	}
	for _, snap := range snaps {
		for _, m := range snap.Metrics {
			name := prefix + promName(m.Name)
			switch m.Kind {
			case "counter":
				add(name, "counter", snap.Labels, fmt.Sprintf("%d", m.Value))
			case "gauge":
				add(name, "gauge", snap.Labels, fmt.Sprintf("%d", m.Value))
				add(name+"_max", "gauge", snap.Labels, fmt.Sprintf("%d", m.Max))
			case "histogram":
				add(name+"_count", "counter", snap.Labels, fmt.Sprintf("%d", m.Value))
				add(name+"_max", "gauge", snap.Labels, fmt.Sprintf("%d", m.Max))
				add(name+"_p50", "gauge", snap.Labels, promFloat(m.P50))
				add(name+"_p99", "gauge", snap.Labels, promFloat(m.P99))
				add(name+"_mean", "gauge", snap.Labels, promFloat(m.Mean))
			}
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}
