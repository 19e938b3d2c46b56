package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A record must survive the store roundtrip with enough fidelity that a
// resumed sweep aggregates it exactly as if the campaign had just run.
func TestRecordRoundtrip(t *testing.T) {
	cfg := TortureConfig{Seed: 11, Campaigns: 1, Txns: 8}
	out := RunCampaignContained(MakeCampaign(cfg, 0))
	if IsInfra(out.Err) {
		t.Fatalf("campaign infra-failed: %v", out.Err)
	}

	path := filepath.Join(t.TempDir(), "sweep.srs")
	writeStore(t, path, OutcomeRecord(out))
	recs, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := recs[0]
	if !ok {
		t.Fatalf("record for index 0 missing: %v", recs)
	}
	back, err := rec.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if back.Campaign.Repro() != out.Campaign.Repro() {
		t.Errorf("repro changed:\n%s\n%s", back.Campaign.Repro(), out.Campaign.Repro())
	}
	if back.Commits != out.Commits || back.MidRun != out.MidRun ||
		back.Torn != out.Torn || back.Dropped != out.Dropped ||
		back.Report != out.Report {
		t.Errorf("counters changed:\n%+v\n%+v", back, out)
	}
	if len(back.Mismatches) != len(out.Mismatches) {
		t.Errorf("mismatches changed: %v vs %v", back.Mismatches, out.Mismatches)
	}
}

// The resume loader must tolerate the torn tail of an interrupted
// writer, let later duplicates win (retried campaigns), and drop infra
// records so a resumed sweep re-executes them.
func TestReadRecordsSkipsTornTailAndInfra(t *testing.T) {
	first := plainRecord(0)
	retried := plainRecord(0)
	retried.Attempts, retried.Commits = 2, 4
	infra := plainRecord(5)
	infra.Attempts, infra.Err, infra.Infra = 3, "infra: watchdog", true
	path := filepath.Join(t.TempDir(), "sweep.srs")
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	sink.flushEvery = 1
	for _, r := range []Record{first, retried, infra, plainRecord(7)} {
		enc, err := sink.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(r, enc); err != nil {
			t.Fatal(err)
		}
	}
	// The process died mid-write: the store was never sealed and the
	// chunk holding record 7 is torn.
	tmp := path + ".tmp"
	fi, err := os.Stat(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tmp, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	recs, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %v, want only index 0", recs)
	}
	if recs[0].Commits != 4 || recs[0].Attempts != 2 {
		t.Errorf("later duplicate did not win: %+v", recs[0])
	}
	if _, ok := recs[5]; ok {
		t.Error("infra record survived; resume would skip retrying it")
	}
}

// A sweep whose every campaign was resumed from records runs nothing and
// still renders a full summary.
func TestFleetFullyResumedSweep(t *testing.T) {
	base := TortureConfig{Seed: 9, Campaigns: 4, Txns: 8, Shrink: false}
	path := filepath.Join(t.TempDir(), "sweep.srs")
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Sink = sink
	cfg.OnSinkError = func(err error) { t.Error("sink error:", err) }
	full, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.Resume = recs
	cfg.Run = func(c Campaign) CampaignOutcome {
		t.Errorf("campaign %d re-executed despite full checkpoint", c.Index)
		return CampaignOutcome{Campaign: c}
	}
	resumed, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Summary() != resumed.Summary() {
		t.Errorf("fully-resumed summary differs:\n%s\nvs\n%s", full.Summary(), resumed.Summary())
	}
	if !strings.Contains(resumed.Summary(), "torture: 4 campaigns") {
		t.Errorf("summary malformed:\n%s", resumed.Summary())
	}
}
