package harness

import (
	"bytes"
	"fmt"
	"sort"

	"silo/internal/stats"
)

// CheckpointSummary aggregates a torture checkpoint store for
// reporting: one sweep's worth of campaign records, deduplicated by
// campaign index (the latest record wins, matching resume semantics).
type CheckpointSummary struct {
	Records   int // records in the store (including superseded duplicates)
	Campaigns int // distinct campaign indices

	MidRun   int
	Commits  int64
	Torn     int64
	Dropped  int64
	Restarts int

	// Failures holds the campaigns whose latest record carries
	// mismatches or a non-infra error; Infra counts records that never
	// produced a durability verdict.
	Failures []Record
	Infra    int

	// Designs counts campaigns per design name.
	Designs map[string]int

	// Avail aggregates cluster availability breakdowns by replication
	// configuration ("r1", "r3/sync", ...); empty for machine sweeps
	// and for streams written before replication existed.
	Avail map[string]*AvailSummary

	// TornTail is set when the store was never sealed (or was damaged)
	// and the summary covers only its recovered sealed prefix — the
	// writing process died mid-write. That is interruption, not
	// corruption, so it does not fail the load.
	TornTail bool
}

// Table renders the summary's per-design breakdown.
func (s *CheckpointSummary) Table() *stats.Table {
	t := stats.NewTable("campaigns by design", "design", "campaigns")
	names := make([]string, 0, len(s.Designs))
	for d := range s.Designs {
		names = append(names, d)
	}
	sort.Strings(names)
	for _, d := range names {
		t.AddRow(d, fmt.Sprintf("%d", s.Designs[d]))
	}
	return t
}

// String renders the summary as a short human-readable report.
func (s *CheckpointSummary) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "checkpoint: %d records, %d campaigns (%d superseded duplicates)\n",
		s.Records, s.Campaigns, s.Records-s.Campaigns)
	fmt.Fprintf(&b, "  %d crashed mid-run, %d tx committed, %d torn, %d dropped, %d re-crashes\n",
		s.MidRun, s.Commits, s.Torn, s.Dropped, s.Restarts)
	if len(s.Avail) > 0 {
		b.WriteString("  availability by replication config:\n")
		b.WriteString(availLines(s.Avail, "    "))
	}
	if s.Infra > 0 {
		fmt.Fprintf(&b, "  %d infra-failed (no durability verdict; a resumed sweep retries them)\n", s.Infra)
	}
	if s.TornTail {
		b.WriteString("  stream ends in a torn partial record: the sweep was interrupted mid-write (resume to finish)\n")
	}
	if len(s.Failures) == 0 {
		b.WriteString("  result: PASS (zero durability failures on record)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  result: FAIL (%d campaigns violated atomic durability)\n", len(s.Failures))
	for _, rec := range s.Failures {
		fmt.Fprintf(&b, "    campaign %d (%s on %s): ", rec.Index, rec.Design, rec.Workload)
		switch {
		case rec.Err != "":
			fmt.Fprintf(&b, "%s\n", rec.Err)
		default:
			fmt.Fprintf(&b, "%d mismatches\n", len(rec.Mismatches))
		}
		if rec.Repro != "" {
			fmt.Fprintf(&b, "      repro: %s\n", rec.Repro)
		}
	}
	return b.String()
}
