package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// -compare applies a paired rule for claiming a gain, and each metric's
// regression bound, to two files of recorded runs. A file is a run's
// standard output, or many appended together: the detail line of each run
// is read and everything else is skipped. Run i of a workload in one file
// is paired with run i of the same workload in the other, so record the
// two sides alternately, at least ten pairs, with the same -seconds and
// the same seeds.

const minPairs = 10

// loadRuns reads the detail lines of a file, by workload, in file order.
func loadRuns(path string) (map[string][]detail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]detail)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		text := sc.Text()
		if !strings.HasPrefix(text, `{"workload"`) {
			continue
		}
		var d detail
		if err := json.Unmarshal([]byte(text), &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[d.Workload] = append(out[d.Workload], d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// verdict compares one (metric, workload) row.
type verdict struct {
	pairs, wins            int
	baseMedian, headMedian float64
	baseIQR, headIQR       float64
	outcome                string
}

// judge decides a row. improved: at least ten pairs, the change wins nine
// tenths of them (ties count for neither), and the medians differ by more
// than the parent's interquartile range. worse: the head median is worse
// than the parent's by more than the bound (for a metric without a bound,
// the mirror of improved). unresolved: neither, and the parent's own
// spread is wider than the bound, unless every head run beats every base
// run.
func judge(def metricDef, base, head []float64) verdict {
	v := verdict{pairs: min(len(base), len(head))}
	v.baseMedian, v.headMedian = median(base), median(head)
	v.baseIQR, v.headIQR = iqr(base), iqr(head)
	sign := 1.0 // positive gain means better
	if def.Better == "lower" {
		sign = -1
	}
	losses := 0
	for i := 0; i < v.pairs; i++ {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			v.wins++
		case d < 0:
			losses++
		}
	}
	gain := sign * (v.headMedian - v.baseMedian)
	enough := v.pairs >= minPairs
	switch {
	case enough && v.wins*10 >= 9*v.pairs && gain > v.baseIQR:
		v.outcome = "improved"
	case def.Bound > 0 && -gain > def.Bound*math.Abs(v.baseMedian):
		v.outcome = "worse"
	case def.Bound == 0 && enough && losses*10 >= 9*v.pairs && -gain > v.baseIQR:
		v.outcome = "worse"
	case def.Bound > 0 && v.baseIQR > def.Bound*math.Abs(v.baseMedian) && !allBetter(sign, base, head):
		v.outcome = "unresolved"
	default:
		v.outcome = "unchanged"
	}
	return v
}

func allBetter(sign float64, base, head []float64) bool {
	worstHead, bestBase := math.Inf(1), math.Inf(-1)
	for _, h := range head {
		worstHead = math.Min(worstHead, sign*h)
	}
	for _, b := range base {
		bestBase = math.Max(bestBase, sign*b)
	}
	return worstHead > bestBase
}

// compareFiles prints one row per (metric, workload) of BENCHMARK.json
// found in both files and reports whether any row is worse.
func compareFiles(basePath, headPath string, w io.Writer) (bool, error) {
	base, err := loadRuns(basePath)
	if err != nil {
		return false, err
	}
	head, err := loadRuns(headPath)
	if err != nil {
		return false, err
	}
	var names []string
	for n := range base {
		if _, ok := head[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has runs in both %s and %s", basePath, headPath)
	}
	sort.Strings(names)
	worse := false
	fmt.Fprintf(w, "%-15s %-26s %5s %24s %24s %8s %6s  %s\n", "workload", "metric", "pairs", "base median (IQR)", "head median (IQR)", "change", "wins", "verdict")
	for _, name := range names {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			b, h := values(base[name], def.Name), values(head[name], def.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v := judge(def, b, h)
			if v.outcome == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-15s %-26s %5d %15.4g (%6.3g) %15.4g (%6.3g) %+7.2f%% %3d/%-2d  %s\n",
				name, def.Name, v.pairs, v.baseMedian, v.baseIQR, v.headMedian, v.headIQR,
				100*ratio(v.headMedian-v.baseMedian, math.Abs(v.baseMedian)), v.wins, v.pairs, v.outcome)
		}
	}
	return worse, nil
}

// values lists a metric over correct runs, in file order.
func values(runs []detail, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Correct {
			out = append(out, m.Value)
		}
	}
	return out
}
