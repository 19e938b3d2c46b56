package harness

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The infra-retry backoff must be a pure function of (seed, campaign,
// attempt): no wall clock, no shared RNG, so a resumed sweep retries on
// the identical schedule.
func TestRetryDelayDeterministic(t *testing.T) {
	base := 50 * time.Millisecond
	for campaign := 0; campaign < 20; campaign++ {
		for attempt := 0; attempt < 4; attempt++ {
			a := RetryDelay(99, campaign, attempt, base)
			b := RetryDelay(99, campaign, attempt, base)
			if a != b {
				t.Fatalf("RetryDelay(99,%d,%d) unstable: %v vs %v", campaign, attempt, a, b)
			}
			lo := base << attempt
			if a < lo || a > lo+base/2 {
				t.Fatalf("RetryDelay(99,%d,%d) = %v outside [%v, %v]", campaign, attempt, a, lo, lo+base/2)
			}
		}
	}
	if RetryDelay(99, 0, 3, 0) != 0 {
		t.Error("zero base must disable backoff entirely")
	}
	// Distinct campaigns must decorrelate (not retry in lockstep).
	same := 0
	for c := 0; c < 16; c++ {
		if RetryDelay(99, c, 1, base) == RetryDelay(99, c+1, 1, base) {
			same++
		}
	}
	if same == 16 {
		t.Error("jitter identical across all campaigns; burst retries would stampede")
	}
}

// sweepStore runs cfg at Parallel=1 through a sweep session whose
// store is at path, resuming from path first when resume is set and
// stopping after `after` fresh records when positive.
func sweepStore(t *testing.T, cfg TortureConfig, path string, resume bool, after int) TortureResult {
	t.Helper()
	cfg.Parallel = 1
	from := ""
	if resume {
		from = path
	}
	s := StoreSweep("sweep", cfg, path, from)
	want := 0
	if after > 0 {
		stop := make(chan struct{})
		s.Config.Stop = stop
		s.Open = func() (SweepStore, error) {
			st, err := OpenCheckpointSink(path)
			return &stopAfter{SweepStore: st, n: after, stop: stop}, err
		}
		want = 130
	}
	var stderr bytes.Buffer
	res, code := s.Run(io.Discard, &stderr)
	if code != want || strings.Contains(stderr.String(), "writing record") {
		t.Fatalf("sweep exit %d, want %d; stderr:\n%s", code, want, &stderr)
	}
	return res
}

// interruptedSweep runs the sweep into a store at path, stopping after
// `after` records, then resumes from that store into the same path and
// returns the final store's record stream.
func interruptedSweep(t *testing.T, base TortureConfig, path string, after int) []byte {
	t.Helper()
	first := sweepStore(t, base, path, false, after)
	if !first.Interrupted || first.Skipped == 0 {
		t.Fatalf("sweep was not interrupted: skipped=%d", first.Skipped)
	}
	recs, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != after {
		t.Fatalf("partial store has %d records, want %d", len(recs), after)
	}
	resumed := sweepStore(t, base, path, true, 0)
	if resumed.Interrupted || resumed.Skipped != 0 {
		t.Fatalf("resumed sweep still interrupted: skipped=%d", resumed.Skipped)
	}
	return storePayloads(t, path)
}

// Two interrupted-and-resumed sweeps — and an uninterrupted baseline —
// must leave stores whose JSONL exports are byte-identical: sequential
// emission order, pure-function retry backoff, and no wall-clock state
// in any record.
func TestFleetInterruptedResumeByteIdenticalJSONL(t *testing.T) {
	base := TortureConfig{Seed: 21, Campaigns: 6, Txns: 8}
	dir := t.TempDir()

	sweepStore(t, base, filepath.Join(dir, "baseline.srs"), false, 0)
	baseline := storePayloads(t, filepath.Join(dir, "baseline.srs"))

	a := interruptedSweep(t, base, filepath.Join(dir, "a.srs"), 3)
	b := interruptedSweep(t, base, filepath.Join(dir, "b.srs"), 3)
	if !bytes.Equal(a, b) {
		t.Errorf("two interrupted+resumed runs differ:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Equal(a, baseline) {
		t.Errorf("interrupted+resumed stream differs from uninterrupted baseline:\n%s\nvs\n%s",
			a, baseline)
	}
	// Interrupting at a different point must still converge to the same
	// final stream.
	c := interruptedSweep(t, base, filepath.Join(dir, "c.srs"), 5)
	if !bytes.Equal(c, baseline) {
		t.Errorf("different interruption point changed the final stream:\n%s\nvs\n%s",
			c, baseline)
	}
}
