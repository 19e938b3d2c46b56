package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// memSink is a test store that keeps every record written to it, and
// its encoding, in write order. Close returns closeErr.
type memSink struct {
	recs     []Record
	encs     []string
	closeErr error
}

func (s *memSink) Encode(r Record) ([]byte, error) { return json.Marshal(r) }

func (s *memSink) Write(r Record, enc []byte) error {
	s.recs = append(s.recs, r)
	s.encs = append(s.encs, string(enc))
	return nil
}

func (s *memSink) Seed(map[int]Record) error { return nil }
func (s *memSink) Close() error              { return s.closeErr }

// stopAfter passes records on to a store and closes stop once n were
// written: a sweep interrupted after n records.
type stopAfter struct {
	SweepStore
	n    int
	stop chan struct{}
}

func (s *stopAfter) Write(r Record, enc []byte) error {
	if s.n--; s.n == 0 {
		close(s.stop)
	}
	return s.SweepStore.Write(r, enc)
}

func passRun(c Campaign) CampaignOutcome { return CampaignOutcome{Campaign: c} }

func TestTortureResultExitCode(t *testing.T) {
	failed := []TortureFailure{{}}
	for _, tc := range []struct {
		res  TortureResult
		want int
	}{
		{TortureResult{}, 0},
		{TortureResult{Infra: failed}, 3},
		{TortureResult{Interrupted: true, Infra: failed}, 130},
		{TortureResult{Failures: failed, Interrupted: true}, 1},
	} {
		if got := tc.res.ExitCode(); got != tc.want {
			t.Errorf("ExitCode(%+v) = %d, want %d", tc.res, got, tc.want)
		}
	}
}

// A store that fails to seal turns a clean sweep into exit 2.
func TestSweepSealFailureExits2(t *testing.T) {
	store := &memSink{closeErr: errors.New("disk full")}
	s := Sweep{Name: "sweep", Config: fleetConfig(3, passRun),
		Open: func() (SweepStore, error) { return store, nil }}
	var stderr bytes.Buffer
	if _, code := s.Run(io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "sealing checkpoint: disk full") {
		t.Errorf("stderr does not report the seal failure:\n%s", &stderr)
	}
	if len(store.recs) != 3 {
		t.Errorf("store got %d records, want 3", len(store.recs))
	}
}

// An interrupted sweep exits 130 and prints the command that resumes
// it: the original one plus -resume <out>, or a plain re-run when no
// store was kept.
func TestSweepInterruptHint(t *testing.T) {
	out := filepath.Join(t.TempDir(), "part.srs")
	for name, tc := range map[string]struct{ out, want string }{
		"with -out":    {out, " -resume " + out + "\n"},
		"without -out": {"", "   # re-run (no -out stream was kept)\n"},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := fleetConfig(4, passRun)
			stop := make(chan struct{})
			close(stop)
			cfg.Stop = stop
			var stderr bytes.Buffer
			if _, code := StoreSweep("silo-cluster", cfg, tc.out, "").Run(io.Discard, &stderr); code != 130 {
				t.Fatalf("exit %d, want 130; stderr:\n%s", code, &stderr)
			}
			if !strings.Contains(stderr.String(), "silo-cluster: interrupted; resume with:\n") ||
				!strings.HasSuffix(stderr.String(), tc.want) {
				t.Errorf("hint does not end in %q:\n%s", tc.want, &stderr)
			}
		})
	}
}

func TestResumeCommand(t *testing.T) {
	for _, tc := range []struct {
		argv, resume []string
		want         string
	}{
		{[]string{"silo-torture", "-out", "a.srs"}, []string{"-resume", "a.srs"}, "silo-torture -out a.srs -resume a.srs"},
		{[]string{"silo-torture", "-out", "a.srs", "-resume=a.srs"}, []string{"-resume", "a.srs"}, "silo-torture -out a.srs -resume=a.srs"},
		{[]string{"silo-explore", "-out", "g.srs"}, []string{"-resume"}, "silo-explore -out g.srs -resume"},
		{[]string{"silo-explore", "-out", "g.srs", "-resume"}, []string{"-resume"}, "silo-explore -out g.srs -resume"},
		{[]string{"silo-cluster"}, nil, "silo-cluster   # re-run (no -out stream was kept)"},
	} {
		if got := resumeCommand(tc.argv, tc.resume); got != tc.want {
			t.Errorf("resumeCommand(%q, %q) = %q, want %q", tc.argv, tc.resume, got, tc.want)
		}
	}
}

// A killed sweep leaves only its store's temp segment, and CI resumes
// it into the same path (-out part.srs -resume part.srs). The session
// must load the resume records before it opens the store, because
// opening truncates that segment.
func TestSweepResumesBeforeOpeningSamePath(t *testing.T) {
	cfg := fleetConfig(6, passRun)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.srs")
	if _, code := StoreSweep("sweep", cfg, full, "").Run(io.Discard, io.Discard); code != 0 {
		t.Fatalf("reference sweep exit %d", code)
	}
	recs, err := LoadRecords(full)
	if err != nil {
		t.Fatal(err)
	}

	// The killed run flushed its first four records and never sealed.
	part := filepath.Join(dir, "part.srs")
	killed, err := OpenCheckpointSink(part)
	if err != nil {
		t.Fatal(err)
	}
	prefix := map[int]Record{}
	for i := 0; i < 4; i++ {
		prefix[i] = recs[i]
	}
	if err := killed.Seed(prefix); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Int64
	cfg.Run = func(c Campaign) CampaignOutcome {
		ran.Add(1)
		return passRun(c)
	}
	var stderr bytes.Buffer
	if _, code := StoreSweep("sweep", cfg, part, part).Run(io.Discard, &stderr); code != 0 {
		t.Fatalf("resumed sweep exit %d; stderr:\n%s", code, &stderr)
	}
	if n := ran.Load(); n != 2 {
		t.Errorf("resumed sweep ran %d campaigns, want the 2 the killed run missed", n)
	}
	if got, want := storePayloads(t, part), storePayloads(t, full); !bytes.Equal(got, want) {
		t.Errorf("resumed store differs from the reference:\n%s\nvs\n%s", got, want)
	}
}
