// Command silo-explore sweeps the Table II design space: a grid over
// the hardware knobs the paper fixes — Silo log-buffer entries, on-PM
// buffer line size, WPQ depth, cache geometry, core count — crossed
// with designs and workloads. Every grid point is one measured
// simulation (no crash injection, auditor off), executed by the pooled
// torture fleet with per-worker machine reuse, and the sweep ends with
// a Pareto-frontier report over throughput, media writes, and
// crash-flush energy.
//
// The sweep checkpoints to -shards binary result stores (-out base
// path), so a million-point grid survives kills and resumes without
// re-running finished points:
//
//	silo-explore -logbuf 10,20,40 -bufline 64,256 -wpq 16,64 \
//	    -out grid.srs -shards 4
//	# ... kill -9 mid-sweep ...
//	silo-explore -logbuf 10,20,40 -bufline 64,256 -wpq 16,64 \
//	    -out grid.srs -shards 4 -resume
//
// Merge the shards and render the frontier with silo-report:
//
//	silo-report -merge grid-all.srs grid-0.srs grid-1.srs grid-2.srs grid-3.srs
//	silo-report -pareto grid-all.srs
//
// The sweep runs through harness.Sweep, the session silo-torture and
// silo-cluster share; with -report the frontier is collected from the
// same record stream the shards get, resumed points included.
//
// Exit codes: 0 every point measured; 1 points failed to run;
// 2 configuration error, or a shard failed to seal after a clean
// sweep; 3 infra-only failures; 130 interrupted (the first SIGINT
// drains, seals the shards and prints the resume command).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"silo/internal/buildinfo"
	"silo/internal/explore"
	"silo/internal/harness"
	"silo/internal/profiling"
)

var prof *profiling.Flags

func main() {
	var (
		designs   = flag.String("designs", "Silo", "comma-separated designs")
		workloads = flag.String("workloads", "Array,Hash,TPCC", "comma-separated workloads")
		cores     = flag.String("cores", "2", "comma-separated core counts")
		logbuf    = flag.String("logbuf", "20", "comma-separated Silo log-buffer entry counts")
		bufline   = flag.String("bufline", "256", "comma-separated on-PM buffer line sizes (bytes)")
		wpq       = flag.String("wpq", "64", "comma-separated WPQ depths per channel")
		cacheStr  = flag.String("cache", "32/256/8192", "comma-separated cache geometries, L1KB/L2KB/L3KB each")
		txns      = flag.Int("txns", 48, "transactions per grid point")
		seed      = flag.Int64("seed", 1, "base seed (point i runs with a seed derived from it)")

		out      = flag.String("out", "", "checkpoint base path (.srs); shards land at base-0.srs .. base-(N-1).srs")
		shards   = flag.Int("shards", 4, "number of store shards behind -out")
		resume   = flag.Bool("resume", false, "load the -out shards and skip already-measured points")
		parallel = flag.Int("parallel", 0, "concurrent points (0 = GOMAXPROCS)")
		wall     = flag.Duration("wall", 2*time.Minute, "per-point wall-clock watchdog (0 disables)")
		report   = flag.Bool("report", true, "print the Pareto frontier after the sweep")
	)
	prof = profiling.Register("silo-explore")
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("silo-explore", showVersion)

	grid := explore.Grid{
		Designs:   harness.SplitList(*designs),
		Workloads: harness.SplitList(*workloads),
		Txns:      *txns,
		Seed:      *seed,
	}
	var err error
	if grid.Cores, err = intList(*cores); err != nil {
		fatalConfig(err)
	}
	if grid.LogBuf, err = intList(*logbuf); err != nil {
		fatalConfig(err)
	}
	if grid.BufLine, err = intList(*bufline); err != nil {
		fatalConfig(err)
	}
	if grid.WPQ, err = intList(*wpq); err != nil {
		fatalConfig(err)
	}
	for _, s := range harness.SplitList(*cacheStr) {
		g, err := explore.ParseCacheGeom(s)
		if err != nil {
			fatalConfig(err)
		}
		grid.Caches = append(grid.Caches, g)
	}
	if err := grid.Normalize(); err != nil {
		fatalConfig(err)
	}
	if *shards < 1 {
		fatalConfig(fmt.Errorf("-shards must be at least 1"))
	}

	fmt.Fprintf(os.Stderr, "silo-explore: %d grid points (%d designs × %d workloads × %d knob combinations)\n",
		grid.Size(), len(grid.Designs), len(grid.Workloads),
		grid.Size()/(len(grid.Designs)*len(grid.Workloads)))
	if err := prof.Start(); err != nil {
		fatalConfig(err)
	}
	if *resume && *out == "" {
		fatalConfig(fmt.Errorf("-resume needs -out"))
	}

	s := harness.Sweep{Name: "silo-explore", Config: harness.TortureConfig{
		Seed:       *seed,
		Campaigns:  grid.Size(),
		Parallel:   *parallel,
		Make:       grid.Campaign,
		Run:        grid.RunPoint,
		WallBudget: harness.FlagOff(*wall),
	}}
	if *resume {
		s.Resume = func() (map[int]harness.Record, error) { return explore.LoadShards(*out, *shards) }
	}
	// With -report the sweep's record stream, resumed points included,
	// also feeds the Pareto frontier.
	var front *frontierSink
	if *out != "" || *report {
		s.Open = func() (harness.SweepStore, error) {
			var store harness.SweepStore = noStore{}
			if *out != "" {
				sharded, err := explore.OpenShardedSink(*out, *shards)
				if err != nil {
					return nil, err
				}
				store = sharded
			}
			if *report {
				front = &frontierSink{SweepStore: store}
				return front, nil
			}
			return store, nil
		}
	}
	if *out != "" {
		s.ResumeArgs = []string{"-resume"}
	}
	s.Config.Stop = s.DrainOnInterrupt()
	res, code := s.Run(os.Stdout, os.Stderr)
	if front != nil && res.Campaigns > 0 && !res.Interrupted {
		fmt.Print(explore.Report(front.recs))
	}
	prof.Stop()
	os.Exit(code)
}

// frontierSink keeps every record of the sweep for the Pareto report,
// passing it on to the store behind it.
type frontierSink struct {
	harness.SweepStore
	recs []harness.Record
}

func (f *frontierSink) Write(r harness.Record, enc []byte) error {
	f.recs = append(f.recs, r)
	return f.SweepStore.Write(r, enc)
}

func (f *frontierSink) Seed(recs map[int]harness.Record) error {
	for _, r := range recs {
		f.recs = append(f.recs, r)
	}
	return f.SweepStore.Seed(recs)
}

// noStore is the store of a sweep run without -out.
type noStore struct{}

func (noStore) Encode(harness.Record) ([]byte, error) { return nil, nil }
func (noStore) Write(harness.Record, []byte) error    { return nil }
func (noStore) Seed(map[int]harness.Record) error     { return nil }
func (noStore) Close() error                          { return nil }

func intList(s string) ([]int, error) {
	var out []int
	for _, p := range harness.SplitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad list value %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatalConfig(err error) {
	fmt.Fprintln(os.Stderr, "silo-explore:", err)
	prof.Stop()
	os.Exit(2)
}
