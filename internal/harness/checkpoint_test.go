package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silo/internal/resultstore"
)

// writeStore writes recs, in order, to a sealed checkpoint store.
func writeStore(t *testing.T, path string, recs ...Record) {
	t.Helper()
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		enc, err := sink.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(r, enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// storePayloads returns a sealed store's record payloads in append
// order, one per line: the store's byte-exact record stream, as
// silo-report -jsonl exports it.
func storePayloads(t *testing.T, path string) []byte {
	t.Helper()
	st, err := resultstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var b bytes.Buffer
	for i := 0; i < st.Count(); i++ {
		p, err := st.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(p)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func plainRecord(idx int) Record {
	return Record{Index: idx, Design: "Silo", Workload: "Array", Cores: 1, Txns: 4, Seed: 1,
		Plan: "trigger=none", Repro: "r", Attempts: 1, Commits: 3, MidRun: true}
}

// writeRaw writes each record, with the given payload, through a sink
// at path that flushes after every record, and returns the sink
// unsealed. Abandoning it leaves what a fleet killed mid-sweep leaves
// at path.tmp; closing it seals the store.
func writeRaw(t *testing.T, path string, recs []Record, payloads [][]byte) *CheckpointSink {
	t.Helper()
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	sink.flushEvery = 1
	for i, r := range recs {
		if err := sink.Write(r, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sink
}

// tearTail cuts the last bytes off an abandoned store's temp segment,
// as if the final chunk never fully reached disk.
func tearTail(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path+".tmp", fi.Size()-5); err != nil {
		t.Fatal(err)
	}
}

// encodeAll marshals recs as the sink would.
func encodeAll(t *testing.T, recs ...Record) [][]byte {
	t.Helper()
	out := make([][]byte, len(recs))
	for i, r := range recs {
		var err error
		if out[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// A checkpoint with no records must fail the summary with an error that
// says so, never report PASS on zero campaigns. A sealed store holding
// nothing says "no records"; an empty or blank file (what an empty
// JSONL stream was) is not a store at all, for either loader.
func TestLoadCheckpointEmptyStreamErrors(t *testing.T) {
	dir := t.TempDir()
	sealed := filepath.Join(dir, "sealed.srs")
	writeStore(t, sealed)
	if s, err := SummarizeStore(sealed); err == nil {
		t.Errorf("want error on a store with no records, got %+v", s)
	} else if !strings.Contains(err.Error(), "no records") {
		t.Errorf("error does not explain the problem: %v", err)
	}
	for name, body := range map[string]string{
		"empty":      "",
		"whitespace": "\n\n  \n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".srs")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if recs, err := LoadRecords(path); !errors.Is(err, resultstore.ErrNotStore) {
				t.Errorf("LoadRecords on %s file = %d records, %v; want ErrNotStore", name, len(recs), err)
			}
			if s, err := SummarizeStore(path); !errors.Is(err, resultstore.ErrNotStore) {
				t.Errorf("SummarizeStore on %s file = %+v, %v; want ErrNotStore", name, s, err)
			}
		})
	}
}

// A writer killed mid-append leaves a torn partial chunk after its last
// flushed record. Both loaders keep every whole record and the summary
// flags the interruption instead of failing.
func TestLoadCheckpointTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.srs")
	recs := []Record{plainRecord(0), plainRecord(1), plainRecord(2)}
	writeRaw(t, path, recs, encodeAll(t, recs...))
	tearTail(t, path) // the third record's chunk
	s, err := SummarizeStore(path)
	if err != nil {
		t.Fatalf("torn final record must not fail the load: %v", err)
	}
	if !s.TornTail {
		t.Error("torn tail not flagged")
	}
	if s.Campaigns != 2 || s.Records != 2 {
		t.Errorf("campaigns=%d records=%d, want 2/2", s.Campaigns, s.Records)
	}
	if !strings.Contains(s.String(), "interrupted mid-write") {
		t.Errorf("summary hides the interruption:\n%s", s.String())
	}
	got, err := LoadRecords(path)
	if err != nil {
		t.Fatalf("torn final record must not fail resume: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("resume recovered %d records, want 2", len(got))
	}
}

// A checkpoint whose only record is torn holds nothing to summarize:
// that is an error naming the cause, not an empty PASS.
func TestLoadCheckpointOnlyTornRecordErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.srs")
	recs := []Record{plainRecord(0)}
	writeRaw(t, path, recs, encodeAll(t, recs...))
	tearTail(t, path)
	s, err := SummarizeStore(path)
	if err == nil {
		t.Fatalf("a store holding only a torn record must error, got %+v", s)
	}
	if !strings.Contains(err.Error(), "no recoverable records") {
		t.Errorf("error does not explain the problem: %v", err)
	}
}

// A payload that is not a record, between good ones, is corruption the
// writer never produces: loading fails and names the record's position,
// in a sealed store and in an unsealed one alike.
func TestLoadCheckpointMidStreamCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{plainRecord(0), plainRecord(1), plainRecord(2)}
	payloads := encodeAll(t, recs...)
	payloads[1] = []byte("GARBAGE NOT JSON")

	sealed := filepath.Join(dir, "sealed.srs")
	if err := writeRaw(t, sealed, recs, payloads).Close(); err != nil {
		t.Fatal(err)
	}
	unsealed := filepath.Join(dir, "unsealed.srs")
	writeRaw(t, unsealed, recs, payloads)

	for name, load := range map[string]func() error{
		"sealed LoadRecords":      func() error { _, err := LoadRecords(sealed); return err },
		"unsealed LoadRecords":    func() error { _, err := LoadRecords(unsealed); return err },
		"unsealed SummarizeStore": func() error { _, err := SummarizeStore(unsealed); return err },
	} {
		err := load()
		if !errors.Is(err, resultstore.ErrCorrupt) {
			t.Errorf("%s: mid-stream corruption must fail the load with ErrCorrupt, got %v", name, err)
			continue
		}
		if !strings.Contains(err.Error(), "record 2") {
			t.Errorf("%s: error does not name the corrupt record: %v", name, err)
		}
	}
}

func TestLoadCheckpointAggregates(t *testing.T) {
	retried := plainRecord(0)
	retried.Torn = 2 // retried campaign: later record wins
	infra := plainRecord(1)
	infra.Err, infra.Infra = "infra: watchdog", true
	failed := plainRecord(2)
	failed.Mismatches = []string{"addr 8 want 1 got 2"}
	path := filepath.Join(t.TempDir(), "sweep.srs")
	writeStore(t, path, plainRecord(0), retried, infra, failed)

	s, err := SummarizeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 4 || s.Campaigns != 3 {
		t.Errorf("records=%d campaigns=%d, want 4/3", s.Records, s.Campaigns)
	}
	if s.Infra != 1 {
		t.Errorf("infra=%d want 1", s.Infra)
	}
	if len(s.Failures) != 1 || s.Failures[0].Index != 2 || s.Failures[0].Mismatches[0] != failed.Mismatches[0] {
		t.Errorf("failures=%+v want campaign 2 only, with its mismatch", s.Failures)
	}
	if s.Torn != 2 {
		t.Errorf("later duplicate did not win: torn=%d want 2", s.Torn)
	}
	// Campaign 0 contributes 3 commits; campaign 1 is infra and campaign
	// 2 failed, so neither folds into the clean aggregates.
	if s.Commits != 3 {
		t.Errorf("commits=%d want 3", s.Commits)
	}
	if !strings.Contains(s.String(), "FAIL (1 campaigns") {
		t.Errorf("summary misses the failure:\n%s", s.String())
	}
	if !strings.Contains(s.Table().String(), "Silo") {
		t.Errorf("design table empty:\n%s", s.Table().String())
	}
}

// A real sweep's store must summarize cleanly and agree with the
// sweep's own aggregates.
func TestLoadCheckpointRoundTripFromSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.srs")
	sink, err := OpenCheckpointSink(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TortureConfig{Seed: 13, Campaigns: 5, Txns: 8, Parallel: 1, Sink: sink}
	cfg.OnSinkError = func(err error) { t.Error("sink error:", err) }
	res, err := Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := SummarizeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Campaigns != 5 || s.TornTail {
		t.Errorf("campaigns=%d torntail=%v, want 5/false", s.Campaigns, s.TornTail)
	}
	if s.Commits != res.Commits || s.MidRun != res.MidRunCrashes {
		t.Errorf("summary disagrees with sweep: commits %d vs %d, midrun %d vs %d",
			s.Commits, res.Commits, s.MidRun, res.MidRunCrashes)
	}
	if len(s.Failures) != len(res.Failures) {
		t.Errorf("failures %d vs %d", len(s.Failures), len(res.Failures))
	}
}

// A JSONL checkpoint from before SRS1 was the only format is refused by
// its header: the loaders return ErrNotStore without trying to recover
// it, the sink will not replace it, and every error names the converter.
func TestJSONLCheckpointRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	legacy := []byte(`{"index":0,"design":"Silo","workload":"Array","commits":3,"attempts":1}` + "\n")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	hint := "silo-report -convert " + path
	_, loadErr := LoadRecords(path)
	_, sumErr := SummarizeStore(path)
	_, sinkErr := OpenCheckpointSink(path)
	for name, err := range map[string]error{"LoadRecords": loadErr, "SummarizeStore": sumErr, "OpenCheckpointSink": sinkErr} {
		if !errors.Is(err, resultstore.ErrNotStore) {
			t.Errorf("%s = %v, want ErrNotStore", name, err)
			continue
		}
		if !strings.Contains(err.Error(), hint) {
			t.Errorf("%s error does not name %q: %v", name, hint, err)
		}
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, legacy) {
		t.Error("the JSONL checkpoint was modified")
	}
}
