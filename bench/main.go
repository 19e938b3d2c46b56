// Command bench is the repository benchmark. It measures five workloads,
// from the B-tree hot path to the crash-torture fleet, end to end (host
// time per run, runs per minute and set-up time, scaled to a reference
// host speed, and peak memory) and layer by layer (CPU profile share per
// module, simulated counters, boundary timings), and checks every
// simulated result against a behaviour lock.
//
//	go run . -workload btree-silo -seed 1 -seconds 24 -trace 0
//	go run . -workload all -trace 1
//	go run . -compare base.jsonl head.jsonl
//	go run . -update
//
// From the repository root, bash bench/run.sh builds it into .bench_build
// and runs it with the same flags; BENCHMARK.json invokes it that way.
// Every metric is printed as "name value unit"; the last line is one JSON
// object with the run's verdict and the BENCHMARK.json metrics. See
// README.md for the workloads, metrics and how to compare two commits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// line is the last line of a run's output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: every metric the run measured, with the
// run's workload and seed, as -compare reads it.
type detail struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	line
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload to run ("+strings.Join(names, ", ")+") or all")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 24, "measured wall time of a run, in seconds")
	trace := fs.String("trace", "0", "0 runs untraced; 1 adds a traced run writing to <work>/trace; any other value is the traced run's directory")
	work := fs.String("work", ".bench_build", "scratch directory for fleet stores and traces")
	compareMode := fs.Bool("compare", false, "compare recorded runs: -compare base.jsonl head.jsonl")
	update := fs.Bool("update", false, "rewrite testdata/digests.json at the default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	switch {
	case *compareMode:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: base.jsonl head.jsonl")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	case *update:
		if err := writeReferences(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *workload == "all":
		return runAll(names, args, stdout, stderr)
	}

	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -workload %q (have %s, all)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, sc: fullScale, work: *work, out: stdout}
	switch *trace {
	case "", "0":
	case "1":
		o.traceDir = filepath.Join(*work, "trace")
	default:
		o.traceDir = *trace
	}
	fmt.Fprintf(stdout, "# bench workload=%s seed=%d seconds=%g traced=%v %s GOMAXPROCS=%d\n",
		w.name, o.seed, o.seconds, o.traceDir != "", runtime.Version(), runtime.GOMAXPROCS(0))
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printResult(stdout, w.name, o.seed, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func printResult(w io.Writer, name string, seed int64, res result) error {
	res.rep.print(w)
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	picked, err := res.rep.pick(defs)
	if err != nil {
		return err
	}
	last := line{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: picked}
	full := last
	full.Metrics = res.rep.metrics
	for _, v := range []any{detail{Workload: name, Seed: seed, Traced: res.traced, line: full}, last} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return nil
}

// runAll runs every workload in its own process, one after another, and
// ends with a line that merges their verdicts, metrics prefixed by
// workload.
func runAll(names, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := line{Correct: true, Metrics: make(map[string]metric)}
	for _, name := range names {
		var buf bytes.Buffer
		cmd := exec.Command(self, append(args, "-workload", name)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		out := strings.TrimSpace(buf.String())
		var l line
		if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &l); err != nil {
			fmt.Fprintf(stderr, "bench: %s: result line: %v\n", name, err)
			return 1
		}
		all.Correct = all.Correct && l.Correct
		all.Attempted += l.Attempted
		all.Failed += l.Failed
		for k, m := range l.Metrics {
			all.Metrics[name+"/"+k] = m
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
