// Command silo-tracecheck validates a Chrome trace-event file emitted by
// the telemetry layer: the JSON must be well-formed, every track's
// timestamps monotone, and every duration slice properly nested. CI runs
// it over the artifact a short simulation records, so a probe regression
// that produces an unloadable timeline fails the build instead of being
// discovered inside Perfetto weeks later.
//
// An argument that starts with the SRS1 magic is a binary result store
// (silo-torture -out sweep.srs), whatever its name: it is opened
// read-only via mmap, the index is scanned for campaigns with an
// embedded trace blob, and each blob is decompressed and validated —
// no payload record is ever deserialized. Any other file is read as a
// Chrome trace.
//
// Usage:
//
//	silo-tracecheck trace.json [more.json ...]
//	silo-tracecheck sweep.srs
//	silo-sim -telemetry /dev/stdout ... | silo-tracecheck -
//
// Exit status: 0 when every file validates, 1 otherwise.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"silo/internal/buildinfo"
	"silo/internal/resultstore"
	"silo/internal/telemetry"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: silo-tracecheck <trace.json>... (or - for stdin)\n")
		flag.PrintDefaults()
	}
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("silo-tracecheck", showVersion)
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	ok := true
	for _, path := range flag.Args() {
		if path != "-" {
			// The header, not the name, tells a store from a trace.
			st, err := resultstore.Open(path)
			switch {
			case err == nil:
				ok = checkStore(path, st) && ok
				continue
			case !errors.Is(err, resultstore.ErrNotStore):
				fmt.Fprintln(os.Stderr, "silo-tracecheck:", err)
				ok = false
				continue
			}
		}
		var r io.Reader
		name := path
		if path == "-" {
			r, name = os.Stdin, "<stdin>"
		} else {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "silo-tracecheck:", err)
				ok = false
				continue
			}
			defer f.Close()
			r = f
		}
		st, err := telemetry.ValidateChromeTrace(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "silo-tracecheck: %s: INVALID: %v\n", name, err)
			ok = false
			continue
		}
		fmt.Printf("%s: OK — %d events, %d tracks, %d counter series (B=%d E=%d i=%d C=%d)\n",
			name, st.Events, st.Tracks, st.Counters,
			st.ByPhase["B"], st.ByPhase["E"], st.ByPhase["i"], st.ByPhase["C"])
	}
	if !ok {
		os.Exit(1)
	}
}

// checkStore validates every trace blob embedded in an open result
// store, then closes it. The index scan finds the campaigns with
// traces; only those blobs are decompressed — payload records stay
// untouched.
func checkStore(path string, st *resultstore.Store) bool {
	defer st.Close()
	ok, traced := true, 0
	st.Scan(resultstore.Filter{}, func(i int, r resultstore.Row) bool {
		if !r.HasTrace() {
			return true
		}
		traced++
		blob, err := st.Trace(i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "silo-tracecheck: %s: campaign %d: INVALID: %v\n", path, r.Index, err)
			ok = false
			return true
		}
		stt, err := telemetry.ValidateChromeTrace(bytes.NewReader(blob))
		if err != nil {
			fmt.Fprintf(os.Stderr, "silo-tracecheck: %s: campaign %d: INVALID: %v\n", path, r.Index, err)
			ok = false
			return true
		}
		fmt.Printf("%s: campaign %d (%s/%s): OK — %d events, %d tracks, %d counter series\n",
			path, r.Index, r.Design, r.Workload, stt.Events, stt.Tracks, stt.Counters)
		return true
	})
	if traced == 0 {
		fmt.Printf("%s: no embedded traces (%d campaigns)\n", path, st.Count())
	}
	return ok
}
