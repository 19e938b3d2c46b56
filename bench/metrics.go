package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric of BENCHMARK.json. The two tables below are the
// source of truth for names, units, directions and bounds; a test checks
// that BENCHMARK.json says the same.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics every workload reports from its untraced
// run. Each one is defined for all five workloads, so a "run" is the
// workload's unit of work: one simulation sample (one round of all five
// designs on tpcc-designs) or one fleet campaign. The bound is the share
// of the parent's median by which the metric may worsen before a change
// counts as a regression.
var endToEnd = []metricDef{
	{Name: "run_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "runs_per_min", Unit: "1/min", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layers are the repository's modules as the CPU profile is bucketed;
// rand and other complete the partition.
var layers = []string{
	"sim", "machine", "cache", "pm", "logging", "core", "baseline", "workload",
	"audit", "telemetry", "recovery", "fault", "harness", "resultstore", "runtime",
	"rand", "other",
}

// perLayer lists the metrics every workload reports from its traced run:
// each layer's share of CPU profile samples, and bytes allocated per run.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{Name: l + ".cpu_share", Unit: "%", Better: "lower"})
	}
	return append(out, metricDef{Name: "runtime.alloc_kB_per_run", Unit: "kB", Better: "lower"})
}()

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in the order they were measured.
type report struct {
	names   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, value float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// print writes every metric as "name value unit".
func (r *report) print(w io.Writer) {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%s %s %s\n", n, formatValue(m.Value), m.Unit)
	}
}

// pick returns the listed metrics; a listed metric the run did not
// measure is an error, because the result line must carry all of them.
func (r *report) pick(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = m
	}
	return out, nil
}

func formatValue(v float64) string {
	b, _ := json.Marshal(v) // shortest round-trip form; v is always finite
	return string(b)
}

// quantile is the linear-interpolation quantile of values at q in [0, 1].
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sorted(values)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// iqr is the distance between the first and third quartiles, computed
// like Python's statistics.quantiles(values, n=4) (the "exclusive"
// method), so spreads printed here match ones computed that way.
func iqr(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := sorted(values)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(3) - q(1)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
