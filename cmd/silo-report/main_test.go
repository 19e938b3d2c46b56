package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"silo/internal/harness"
	"silo/internal/recovery"
	"silo/internal/resultstore"
)

// The legacy fixture is what the JSONL checkpoint sink wrote for the
// synthetic sweep below (legacySweepConfig), and its summary as the
// JSONL summarizer rendered it. Both were generated once, before the
// JSONL sink was removed, and lock the interchange format: a store
// exported with -jsonl must reproduce the lines, and a converted
// fixture must reproduce the summary.
const (
	legacyJSONL   = "testdata/legacy_v1.jsonl"
	legacySummary = "testdata/legacy_v1.summary.txt"
)

// legacySweepRun is the synthetic executor behind the fixture,
// producing every record shape a checkpoint carries: clean campaigns
// with aggregates, mid-run crashes, golden-shadow mismatches, run
// errors, exhausted infra, and cluster-style availability summaries.
func legacySweepRun(c harness.Campaign) harness.CampaignOutcome {
	out := harness.CampaignOutcome{Campaign: c}
	switch c.Index % 8 {
	case 3:
		out.Mismatches = []string{fmt.Sprintf("addr %d want 1 got 2", c.Index)}
		out.Invariant = "golden-shadow"
	case 5:
		out.Err = fmt.Errorf("synthetic run error %d", c.Index)
	case 6:
		out.Err = harness.InfraError{Err: errors.New("synthetic host wobble")}
		out.Infra = true
	default:
		out.MidRun = c.Index%2 == 0
		out.Commits = int64(100 + c.Index)
		out.Torn = int64(c.Index % 3)
		out.Dropped = int64(c.Index % 2)
		out.Restarts = c.Index % 2
		out.Report = recovery.Report{CommittedTx: 100 + c.Index, RedoApplied: c.Index, Complete: true}
		if c.Index%4 == 0 {
			out.Avail = &harness.AvailSummary{
				Replicas: 3, Mode: "sync", Windows: 2, Strikes: 1,
				DetectSum: int64(c.Index) * 11, PromoteSum: 7, WidthSum: 31,
				WidthMax: 19, OwnerSum: 13, OwnerMax: 13,
			}
		}
	}
	return out
}

func legacySweepConfig() harness.TortureConfig {
	return harness.TortureConfig{
		Seed: 4, Campaigns: 24, Txns: 8, Parallel: 1, Retries: -1,
		Backoff: time.Millisecond, Run: legacySweepRun,
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func export(t *testing.T, path string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := exportJSONL(&buf, path); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConvertLegacyFixtureSummary imports the legacy JSONL fixture and
// demands the store summarize exactly as the JSONL summarizer did, and
// export back to the fixture's bytes.
func TestConvertLegacyFixtureSummary(t *testing.T) {
	out := filepath.Join(t.TempDir(), "legacy.srs")
	f, err := os.Open(legacyJSONL)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, tornTail, err := convertJSONL(f, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 || tornTail {
		t.Fatalf("converted %d records (torn tail %v), want 24 and no torn tail", n, tornTail)
	}
	s, err := harness.SummarizeStore(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.String()+s.Table().String(), string(readFile(t, legacySummary)); got != want {
		t.Errorf("summary differs from the legacy golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !bytes.Equal(export(t, out), readFile(t, legacyJSONL)) {
		t.Error("-jsonl of the converted store differs from the fixture")
	}
}

// TestExportJSONLMatchesLegacyFixture sweeps the fixture's config into
// a store and demands -jsonl reproduce the legacy sink's bytes and the
// store summarize exactly as the legacy stream did.
func TestExportJSONLMatchesLegacyFixture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.srs")
	sink, err := harness.OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := legacySweepConfig()
	cfg.Sink = sink
	cfg.OnSinkError = func(err error) { t.Error("sink error:", err) }
	if _, err := harness.Torture(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := export(t, path), readFile(t, legacyJSONL); !bytes.Equal(got, want) {
		t.Errorf("-jsonl differs from the legacy fixture:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	s, err := harness.SummarizeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.String()+s.Table().String(), string(readFile(t, legacySummary)); got != want {
		t.Errorf("summary differs from the legacy golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// A JSONL file handed to a mode that reads stores fails with exit 1,
// never by silently summarizing zero records.
func TestTortureReportRejectsJSONL(t *testing.T) {
	for name, filter := range map[string]resultstore.Filter{
		"summary": {},
		"query":   {Design: "Silo"},
	} {
		if code := tortureReport(legacyJSONL, filter); code != 1 {
			t.Errorf("%s: exit %d on a JSONL file, want 1", name, code)
		}
	}
	if code := jsonlMode(legacyJSONL); code != 1 {
		t.Errorf("-jsonl: exit %d on a JSONL file, want 1", code)
	}
}

func validLine(idx int, extra string) string {
	return `{"index":` + strconv.Itoa(idx) + `,"design":"Silo","workload":"Array","cores":1,"txns":4,"seed":1,"plan":"trigger=none","repro":"r","report":{},"attempts":1,"commits":3,"mid_run":true` + extra + "}\n"
}

func TestConvertJSONLTornTailTolerated(t *testing.T) {
	body := validLine(0, "") + validLine(1, "") + `{"index":2,"design":"Si`
	out := filepath.Join(t.TempDir(), "out.srs")
	n, tornTail, err := convertJSONL(strings.NewReader(body), out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || !tornTail {
		t.Fatalf("n=%d tornTail=%v, want 2/true", n, tornTail)
	}
	s, err := harness.SummarizeStore(out)
	if err != nil {
		t.Fatal(err)
	}
	if s.Campaigns != 2 || s.TornTail {
		t.Errorf("campaigns=%d torntail=%v, want 2/false (the store sealed complete)", s.Campaigns, s.TornTail)
	}
}

func TestConvertJSONLRejectsMidStreamCorruption(t *testing.T) {
	body := validLine(0, "") + "GARBAGE NOT JSON\n" + validLine(1, "")
	out := filepath.Join(t.TempDir(), "out.srs")
	_, _, err := convertJSONL(strings.NewReader(body), out)
	if err == nil {
		t.Fatal("mid-stream corruption must fail the conversion")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name the corrupt line: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("failed conversion left a store behind")
	}
	if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
		t.Error("failed conversion left a temp segment behind")
	}
}

func TestConvertJSONLRejectsEmptyStream(t *testing.T) {
	for name, tc := range map[string]struct{ body, why string }{
		"empty":      {"", "no records"},
		"whitespace": {"\n\n  \n", "no records"},
		"torn-only":  {`{"index":0,"des`, "torn partial record"},
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.srs")
			_, _, err := convertJSONL(strings.NewReader(tc.body), out)
			if err == nil {
				t.Fatal("a stream with no whole record must fail the conversion")
			}
			if !strings.Contains(err.Error(), tc.why) {
				t.Errorf("error does not explain the problem: %v", err)
			}
		})
	}
}
