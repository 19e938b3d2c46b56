package harness

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// SweepStore is the checkpoint store a sweep session writes: the
// fleet's record sink, seeded with the resumed records before the
// fleet starts and sealed when it ends. CheckpointSink and
// explore.ShardedSink are the two stores.
type SweepStore interface {
	RecordSink
	Seed(map[int]Record) error
	Close() error
}

// Sweep is one run of a sweep command (silo-torture, silo-cluster,
// silo-explore): resume, store, fleet, summary and exit code.
type Sweep struct {
	Name   string // the command; prefixes every line written to stderr
	Config TortureConfig

	// Resume loads a previous run's records (nil: a fresh sweep). Run
	// calls it before Open, because the two may name the same path and
	// opening a store truncates the temp segment a killed run left.
	Resume func() (map[int]Record, error)
	// Open opens the checkpoint store (nil: the sweep keeps none).
	Open func() (SweepStore, error)
	// ResumeArgs continue this sweep from its store when appended to
	// the command line ("-resume out.srs"); nil when no store is kept.
	ResumeArgs []string
}

// StoreSweep is the session of a command with one store: out is its
// -out path and resume its -resume path ("" for none).
func StoreSweep(name string, cfg TortureConfig, out, resume string) Sweep {
	s := Sweep{Name: name, Config: cfg}
	if resume != "" {
		s.Resume = func() (map[int]Record, error) { return LoadRecords(resume) }
	}
	if out != "" {
		s.Open = func() (SweepStore, error) { return OpenCheckpointSink(out) }
		s.ResumeArgs = []string{"-resume", out}
	}
	return s
}

// Run executes the session and returns the sweep's result and exit
// code: 2 when the sweep cannot start, its fleet fails or its store
// fails to seal after a clean sweep, else TortureResult.ExitCode. The
// store is sealed on every return, so a drained or failed sweep still
// publishes a valid store; only a hard kill (or a second interrupt)
// leaves the recoverable temp segment. The summary goes to stdout, the
// command's messages to stderr.
func (s Sweep) Run(stdout, stderr io.Writer) (res TortureResult, code int) {
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "%s: %s\n", s.Name, fmt.Sprintf(format, a...))
	}
	cfg := s.Config
	if s.Resume != nil {
		recs, err := s.Resume()
		if err != nil {
			logf("%v", err)
			return res, 2
		}
		cfg.Resume = recs
		logf("resuming, %d campaigns already done", len(recs))
	}
	var store SweepStore
	if s.Open != nil {
		st, err := s.Open()
		if err != nil {
			logf("%v", err)
			return res, 2
		}
		store = st
		defer func() {
			if err := store.Close(); err != nil {
				logf("sealing checkpoint: %v", err)
				if code == 0 {
					code = 2
				}
			}
		}()
		// Re-emit resumed records so the sealed store is complete.
		if err := store.Seed(cfg.Resume); err != nil {
			logf("%v", err)
			return res, 2
		}
		cfg.Sink = store
		cfg.OnSinkError = func(err error) { logf("writing record: %v", err) }
	}
	res, err := Torture(cfg)
	if err != nil {
		logf("%v", err)
		return res, 2
	}
	// Failing campaigns re-ran with telemetry (when TraceDir is set);
	// a store that can hold traces embeds them, compressed, next to
	// their records.
	if ts, ok := store.(interface{ AttachTrace(int, []byte) error }); ok {
		for _, f := range res.Failures {
			if f.TracePath == "" {
				continue
			}
			blob, err := os.ReadFile(f.TracePath)
			if err == nil {
				err = ts.AttachTrace(f.Outcome.Campaign.Index, blob)
			}
			if err != nil {
				logf("embedding trace: %v", err)
			}
		}
	}
	fmt.Fprint(stdout, res.Summary())
	code = res.ExitCode()
	if code == 130 {
		logf("interrupted; resume with:\n  %s", resumeCommand(os.Args, s.ResumeArgs))
	}
	return res, code
}

// DrainOnInterrupt returns a channel for Config.Stop that closes on the
// first SIGINT or SIGTERM, draining the sweep: campaigns in flight
// finish, queued ones are skipped, and Run seals the store. A second
// signal exits the process with 130 at once.
func (s Sweep) DrainOnInterrupt() <-chan struct{} {
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintf(os.Stderr, "%s: draining (campaigns in flight will finish; interrupt again to abort)\n", s.Name)
		close(stop)
		<-sigs
		fmt.Fprintf(os.Stderr, "%s: aborted\n", s.Name)
		os.Exit(130)
	}()
	return stop
}

// resumeCommand renders the command that continues an interrupted
// sweep: argv plus the resume arguments, unless argv already resumes.
func resumeCommand(argv, resume []string) string {
	cmd := strings.Join(argv, " ")
	if len(resume) == 0 {
		return cmd + "   # re-run (no -out stream was kept)"
	}
	for _, a := range argv[1:] {
		if a == resume[0] || strings.HasPrefix(a, resume[0]+"=") {
			return cmd
		}
	}
	return strings.Join(append(argv[:len(argv):len(argv)], resume...), " ")
}

// ExitCode maps the sweep onto the sweep commands' exit status: 1 when
// a campaign violated atomic durability (or could not run), 130 when
// the sweep was interrupted, 3 when only infra failures remain, else 0.
func (r TortureResult) ExitCode() int {
	switch {
	case !r.Ok():
		return 1
	case r.Interrupted:
		return 130
	case len(r.Infra) > 0:
		return 3
	}
	return 0
}

// FlagOff maps a command-line budget, where 0 turns it off, onto
// TortureConfig's spelling, where 0 means the default and off is -1.
func FlagOff[T ~int | ~int64](v T) T {
	if v == 0 {
		return -1
	}
	return v
}

// SplitList splits a comma-separated flag value, dropping empty items.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
