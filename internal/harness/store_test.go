package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"silo/internal/recovery"
)

// storeSweepRun is a synthetic executor producing every record shape
// the store must carry: clean campaigns with aggregates, mid-run
// crashes, golden-shadow mismatches, run errors, exhausted infra, and
// cluster-style availability summaries.
func storeSweepRun(c Campaign) CampaignOutcome {
	out := CampaignOutcome{Campaign: c}
	switch c.Index % 8 {
	case 3:
		out.Mismatches = []string{fmt.Sprintf("addr %d want 1 got 2", c.Index)}
		out.Invariant = "golden-shadow"
	case 5:
		out.Err = fmt.Errorf("synthetic run error %d", c.Index)
	case 6:
		out.Err = InfraError{Err: errors.New("synthetic host wobble")}
		out.Infra = true
	default:
		out.MidRun = c.Index%2 == 0
		out.Commits = int64(100 + c.Index)
		out.Torn = int64(c.Index % 3)
		out.Dropped = int64(c.Index % 2)
		out.Restarts = c.Index % 2
		out.Report = recovery.Report{CommittedTx: 100 + c.Index, RedoApplied: c.Index, Complete: true}
		if c.Index%4 == 0 {
			out.Avail = &AvailSummary{
				Replicas: 3, Mode: "sync", Windows: 2, Strikes: 1,
				DetectSum: int64(c.Index) * 11, PromoteSum: 7, WidthSum: 31,
				WidthMax: 19, OwnerSum: 13, OwnerMax: 13,
			}
		}
	}
	return out
}

// sweepToPath runs the synthetic sweep with a CheckpointSink at path.
func sweepToPath(t *testing.T, path string, campaigns int) {
	t.Helper()
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetConfig(campaigns, storeSweepRun)
	cfg.Retries = -1 // synthetic infra failures are deterministic; don't retry
	cfg.Sink = sink
	cfg.OnSinkError = func(err error) { t.Error("sink error:", err) }
	if _, err := Torture(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// The legacy fixture in cmd/silo-report/testdata is what the JSONL
// checkpoint sink wrote for sweepToPath's 24-campaign sweep, and its
// summary as the JSONL summarizer rendered it.
const (
	legacyJSONL   = "../../cmd/silo-report/testdata/legacy_v1.jsonl"
	legacySummary = "../../cmd/silo-report/testdata/legacy_v1.summary.txt"
)

// TestStoreSweepSummaryByteIdentical runs the fixture's sweep into a
// store and demands its rendered summary and design table agree byte
// for byte with the JSONL summarizer's for the same sweep.
func TestStoreSweepSummaryByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.srs")
	sweepToPath(t, path, 24)
	want, err := os.ReadFile(legacySummary)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SummarizeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String() + s.Table().String(); got != string(want) {
		t.Errorf("store summary differs from the JSONL one:\n--- jsonl ---\n%s--- store ---\n%s", want, got)
	}
}

// TestLoadRecordsStoreMatchesJSONL demands the resume state a store
// yields equals the one its JSONL fixture holds: later duplicates win
// and infra-failed campaigns are dropped so the fleet retries them.
func TestLoadRecordsStoreMatchesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.srs")
	sweepToPath(t, path, 24)
	fromStore, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	fromJSONL := make(map[int]Record)
	f, err := os.Open(legacyJSONL)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Infra {
			delete(fromJSONL, rec.Index)
			continue
		}
		fromJSONL[rec.Index] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSONL, fromStore) {
		t.Errorf("resume maps differ: jsonl %d records, store %d records", len(fromJSONL), len(fromStore))
	}
	// Infra campaigns (index%8 == 6) must be absent so the fleet
	// retries them.
	for idx := range fromStore {
		if idx%8 == 6 {
			t.Errorf("infra campaign %d survived into the resume map", idx)
		}
	}
}

// TestStoreInterruptedWriterResume is the crash-recovery round trip:
// a fleet killed mid-sweep leaves an unsealed temp segment; resume
// recovers its sealed prefix byte-exactly, re-runs the rest, and the
// final summary is byte-identical to an uninterrupted sweep's.
func TestStoreInterruptedWriterResume(t *testing.T) {
	dir := t.TempDir()
	const campaigns = 24

	// Uninterrupted reference.
	fullPath := filepath.Join(dir, "full.srs")
	sweepToPath(t, fullPath, campaigns)
	want, err := SummarizeStore(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: flush every 4 records, "kill" the fleet by
	// abandoning the sink after 10 records (never Close/Seal).
	intPath := filepath.Join(dir, "interrupted.srs")
	sink, err := OpenCheckpointSink(intPath)
	if err != nil {
		t.Fatal(err)
	}
	sink.flushEvery = 4
	var mu sync.Mutex
	written, killed := 0, false
	cfg := fleetConfig(campaigns, storeSweepRun)
	cfg.Retries = -1
	cfg.Parallel = 1 // deterministic completion order: indices 0,1,2,...
	cfg.Sink = sinkFunc{
		encode: sink.Encode,
		write: func(r Record, enc []byte) error {
			mu.Lock()
			defer mu.Unlock()
			if killed {
				return nil // the dead writer drops everything
			}
			if err := sink.Write(r, enc); err != nil {
				return err
			}
			if written++; written == 10 {
				killed = true
			}
			return nil
		},
	}
	if _, err := Torture(cfg); err != nil {
		t.Fatal(err)
	}
	// No Close: the run "died". Only the unsealed temp segment exists.
	if _, err := os.Stat(intPath); !os.IsNotExist(err) {
		t.Fatal("interrupted run published a sealed store")
	}

	recovered, err := LoadRecords(intPath)
	if err != nil {
		t.Fatal(err)
	}
	// 10 records written, flushed after 4 and 8: the sealed prefix holds
	// indices 0..7 (the open chunk with 8,9 died with the writer), and
	// resume drops the infra record (index 6) for retry → 7 recovered.
	if len(recovered) != 7 {
		t.Fatalf("recovered %d records, want 7: %v", len(recovered), recovered)
	}

	// Resume into the same path, as the sweep commands do; the
	// synthetic failures make the sweep exit 1.
	reran := 0
	cfg2 := fleetConfig(campaigns, func(c Campaign) CampaignOutcome {
		mu.Lock()
		reran++
		mu.Unlock()
		return storeSweepRun(c)
	})
	cfg2.Retries = -1
	var stderr bytes.Buffer
	if _, code := StoreSweep("sweep", cfg2, intPath, intPath).Run(io.Discard, &stderr); code != 1 {
		t.Fatalf("resumed sweep exit %d, want 1; stderr:\n%s", code, &stderr)
	}
	if reran != campaigns-len(recovered) {
		t.Errorf("resume re-ran %d campaigns, want %d", reran, campaigns-len(recovered))
	}

	got, err := SummarizeStore(intPath)
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Errorf("summaries differ after kill+resume:\n--- full ---\n%s--- resumed ---\n%s", want.String(), got.String())
	}
	if want.Table().String() != got.Table().String() {
		t.Error("design tables differ after kill+resume")
	}
}

// sinkFunc adapts closures to RecordSink for tests.
type sinkFunc struct {
	encode func(Record) ([]byte, error)
	write  func(Record, []byte) error
}

func (s sinkFunc) Encode(r Record) ([]byte, error)  { return s.encode(r) }
func (s sinkFunc) Write(r Record, enc []byte) error { return s.write(r, enc) }

// TestSummarizeUnsealedStoreTornTail points the summarizer at a store
// whose writer died before sealing: only the temp segment exists. The
// summary must come from the sealed prefix and flag the interruption.
func TestSummarizeUnsealedStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.srs")
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	sink.flushEvery = 1
	for i := 0; i < 6; i++ {
		r := Record{Index: i, Design: "Silo", Workload: "Array", Commits: 10, Attempts: 1}
		enc, err := sink.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(r, enc); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close: only sweep.srs.tmp exists.
	s, err := SummarizeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Campaigns != 6 || s.Commits != 60 {
		t.Errorf("campaigns=%d commits=%d, want 6/60", s.Campaigns, s.Commits)
	}
	if !s.TornTail {
		t.Error("interrupted writer not flagged as a torn tail")
	}
	if !strings.Contains(s.String(), "interrupted mid-write") {
		t.Errorf("summary hides the interruption:\n%s", s.String())
	}
}

// TestCheckpointSinkSeedIsDurable resumes into a sink and abandons it
// right after seeding: opening the sink truncated the temp segment the
// records were recovered from, so Seed must flush them to disk itself
// rather than wait for the next 64-record flush.
func TestCheckpointSinkSeedIsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.srs")
	recs := make(map[int]Record)
	for i := 0; i < 10; i++ {
		recs[i] = plainRecord(i)
	}
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Seed(recs); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: the resumed fleet "died" right after Seed.
	got, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("recovered %d of %d seeded records", len(got), len(recs))
	}
}
