package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"

	"silo/internal/resultstore"
)

// RecordSink is the fleet's two-phase checkpoint sink. Encode is
// called on the completing campaign's goroutine — concurrently, with
// no lock held — and must be pure; Write is called under the fleet's
// emit lock, strictly serialized, in completion order.
type RecordSink interface {
	Encode(Record) ([]byte, error)
	Write(Record, []byte) error
}

// RowFromRecord projects a record onto its fixed-size index row. The
// row carries everything filtering and aggregation need; full fidelity
// (mismatch strings, plan, trail, repro) stays in the JSON payload.
func RowFromRecord(r Record) resultstore.Row {
	row := resultstore.Row{
		Index:      int64(r.Index),
		Seed:       r.Seed,
		Commits:    r.Commits,
		Torn:       r.Torn,
		Dropped:    r.Dropped,
		Restarts:   uint32(r.Restarts),
		Mismatches: uint32(len(r.Mismatches)),
		Design:     r.Design,
		Workload:   r.Workload,
		Invariant:  r.Invariant,
		Attempts:   uint16(r.Attempts),
		MidRun:     r.MidRun,
		Panicked:   r.Panicked,
		TimedOut:   r.TimedOut,
		Infra:      r.Infra,
		Complete:   r.Report.Complete,

		CommittedTx:   uint32(r.Report.CommittedTx),
		RedoApplied:   uint32(r.Report.RedoApplied),
		UndoApplied:   uint32(r.Report.UndoApplied),
		Discarded:     uint32(r.Report.Discarded),
		Quarantined:   uint32(r.Report.Quarantined),
		TotalRecords:  uint32(r.Report.TotalRecords),
		AppliedWrites: uint32(r.Report.AppliedWrites),
	}
	switch {
	case r.Infra:
		row.Kind = resultstore.KindInfra
	case r.Err != "":
		row.Kind = resultstore.KindError
	case len(r.Mismatches) > 0:
		row.Kind = resultstore.KindMismatch
	default:
		row.Kind = resultstore.KindOK
	}
	if a := r.Avail; a != nil {
		row.HasAvail = true
		row.Replicas = uint16(a.Replicas)
		row.Mode = a.Mode
		row.Windows = uint32(a.Windows)
		row.Strikes = uint32(a.Strikes)
		row.DetectSum = a.DetectSum
		row.PromoteSum = a.PromoteSum
		row.ResyncSum = a.ResyncSum
		row.WidthSum = a.WidthSum
		row.WidthMax = a.WidthMax
		row.OwnerSum = a.OwnerSum
		row.OwnerMax = a.OwnerMax
		row.AckedLost = a.AckedLost
	}
	return row
}

// availFromRow reconstructs the availability summary an index row
// carries (nil when the record had none).
func availFromRow(r resultstore.Row) *AvailSummary {
	if !r.HasAvail {
		return nil
	}
	return &AvailSummary{
		Replicas:   int(r.Replicas),
		Mode:       r.Mode,
		Windows:    int(r.Windows),
		Strikes:    int(r.Strikes),
		DetectSum:  r.DetectSum,
		PromoteSum: r.PromoteSum,
		ResyncSum:  r.ResyncSum,
		WidthSum:   r.WidthSum,
		WidthMax:   r.WidthMax,
		OwnerSum:   r.OwnerSum,
		OwnerMax:   r.OwnerMax,
		AckedLost:  r.AckedLost,
	}
}

// CheckpointSink is the file-backed RecordSink behind -out: an SRS1
// store writer. Output streams into <path>.tmp and is published by
// Close (sealed footer + atomic rename); a killed fleet leaves the temp
// segment, whose sealed prefix LoadRecords recovers on resume.
type CheckpointSink struct {
	store *resultstore.Writer

	// Writes flush to disk every flushEvery records so a killed fleet
	// loses a bounded suffix, not its whole run: the byte threshold
	// inside the writer alone could buffer a small sweep entirely. One
	// flush is one write syscall, so the write path amortizes to ~1/64
	// of a syscall per record.
	written    int
	flushEvery int
}

// storeFlushEvery is the durability cadence for store sinks.
const storeFlushEvery = 64

// OpenCheckpointSink opens an SRS1 store writer for path, whatever its
// extension. A file already at path that is not a store is refused
// (ErrNotStore), never replaced.
func OpenCheckpointSink(path string) (*CheckpointSink, error) {
	w, err := resultstore.NewWriter(path)
	if err != nil {
		return nil, convertHint(path, err)
	}
	return &CheckpointSink{store: w, flushEvery: storeFlushEvery}, nil
}

// convertHint points a caller handed a file that is not a store (most
// likely a JSONL checkpoint from before SRS1 was the only format) at
// the converter.
func convertHint(path string, err error) error {
	if errors.Is(err, resultstore.ErrNotStore) {
		return fmt.Errorf("%w; to use a JSONL checkpoint, convert it first: silo-report -convert %s", err, path)
	}
	return err
}

// Encode marshals the record once, outside the emit lock; the store
// appends the bytes as the payload, so it round-trips records
// byte-exactly.
func (s *CheckpointSink) Encode(r Record) ([]byte, error) {
	return json.Marshal(r)
}

// Write appends one encoded record (serialized by the fleet).
func (s *CheckpointSink) Write(r Record, enc []byte) error {
	if err := s.store.Append(RowFromRecord(r), enc); err != nil {
		return err
	}
	s.written++
	if s.written%s.flushEvery == 0 {
		return s.store.Flush()
	}
	return nil
}

// Seed pre-populates the store with resumed records in campaign order,
// so the sealed result is complete even though the fleet will not
// re-emit them. It ends with a flush: opening the sink truncated the
// temp segment the records may have been recovered from, so until then
// they exist only in memory.
func (s *CheckpointSink) Seed(recs map[int]Record) error {
	idxs := make([]int, 0, len(recs))
	for i := range recs {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	for _, i := range idxs {
		enc, err := s.Encode(recs[i])
		if err != nil {
			return err
		}
		if err := s.Write(recs[i], enc); err != nil {
			return err
		}
	}
	return s.store.Flush()
}

// AttachTrace embeds a recorded Chrome trace into the store for the
// campaign.
func (s *CheckpointSink) AttachTrace(index int, blob []byte) error {
	return s.store.AttachTrace(int64(index), blob)
}

// Close publishes the store (Seal + atomic rename). Safe to call once.
func (s *CheckpointSink) Close() error {
	return s.store.Seal()
}

// decodeStoreRecord parses one store payload back into a Record.
func decodeStoreRecord(payload []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("%w: payload is not a record: %v", resultstore.ErrCorrupt, err)
	}
	return rec, nil
}

// LoadRecords reads a checkpoint store for resume. It accepts every
// artifact an interrupted fleet can leave behind: a sealed store at
// path, an unsealed temp segment at path (pointed at directly), and a
// newer temp segment at path.tmp layered over the sealed store it was
// rewriting. A later record for a campaign index supersedes earlier
// ones, and infra-failed records are dropped so the fleet retries
// them. A file that is not a store is ErrNotStore, never recovered.
func LoadRecords(path string) (map[int]Record, error) {
	out := make(map[int]Record)
	found := false
	st, err := resultstore.Open(path)
	switch {
	case err == nil:
		payloads := make([][]byte, st.Count())
		for i := range payloads {
			if payloads[i], err = st.Payload(i); err != nil {
				break
			}
		}
		if err == nil {
			err = applyPayloads(out, payloads)
		}
		st.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		found = true
	case errors.Is(err, resultstore.ErrNotStore):
		return nil, convertHint(path, err)
	case errors.Is(err, resultstore.ErrCorrupt):
		// Unsealed or damaged: recover the sealed chunk prefix.
		payloads, rerr := resultstore.Recover(path)
		if rerr != nil {
			return nil, fmt.Errorf("%s: %w", path, rerr)
		}
		if err := applyPayloads(out, payloads); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		found = true
	case !os.IsNotExist(err):
		return nil, err
	}
	// A temp segment is always newer than the sealed store it was
	// rewriting (resume seeds the old records first), so it layers on
	// top.
	if payloads, rerr := resultstore.Recover(path + ".tmp"); rerr == nil {
		if err := applyPayloads(out, payloads); err != nil {
			return nil, fmt.Errorf("%s.tmp: %w", path, err)
		}
		found = true
	} else if !os.IsNotExist(rerr) && !errors.Is(rerr, resultstore.ErrCorrupt) {
		return nil, fmt.Errorf("%s.tmp: %w", path, rerr)
	}
	if !found {
		return nil, fmt.Errorf("%s: no store and no recoverable temp segment: %w", path, os.ErrNotExist)
	}
	return out, nil
}

// applyPayloads folds records into the resume map in append order.
// A payload that does not decode is named by its 1-based position.
func applyPayloads(out map[int]Record, payloads [][]byte) error {
	for i, p := range payloads {
		rec, err := decodeStoreRecord(p)
		if err != nil {
			return fmt.Errorf("record %d: %w", i+1, err)
		}
		if rec.Infra {
			delete(out, rec.Index)
			continue
		}
		out[rec.Index] = rec
	}
	return nil
}

// SummarizeStore aggregates a store by scanning only its fixed-size
// index rows — no payload is deserialized except for the (rare)
// failed campaigns, whose mismatch strings and repro lines the report
// prints. This is the mmap fast path: a 100k-campaign summary is an
// index scan, not 100k JSON parses. An unsealed or damaged store is
// summarized from its recovered sealed prefix and flagged TornTail; a
// file that is not a store is ErrNotStore.
func SummarizeStore(path string) (*CheckpointSummary, error) {
	st, err := resultstore.Open(path)
	if err != nil {
		if errors.Is(err, resultstore.ErrNotStore) {
			return nil, convertHint(path, err)
		}
		if errors.Is(err, resultstore.ErrCorrupt) {
			return summarizeRecovered(path, err)
		}
		if os.IsNotExist(err) {
			// A fleet killed before its first Seal leaves only the temp
			// segment; summarize its sealed prefix.
			if _, terr := os.Stat(path + ".tmp"); terr == nil {
				return summarizeRecovered(path+".tmp", err)
			}
		}
		return nil, err
	}
	defer st.Close()
	if st.Count() == 0 {
		return nil, errors.New("checkpoint: no records (empty store); was the sweep run with -out?")
	}
	s, err := summarizeRows(st.Count(), st.Row, func(i int) (Record, error) {
		p, err := st.Payload(i)
		if err != nil {
			return Record{}, err
		}
		return decodeStoreRecord(p)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// summarizeRecovered summarizes the sealed prefix of an unsealed or
// damaged store, flagged as an interrupted writer's torn tail.
func summarizeRecovered(path string, openErr error) (*CheckpointSummary, error) {
	payloads, err := resultstore.Recover(path)
	if err != nil {
		// openErr came from Open/Stat and already names the file.
		return nil, openErr
	}
	if len(payloads) == 0 {
		return nil, fmt.Errorf("%s: unsealed store with no recoverable records (writer died before the first chunk flush); re-run or resume the sweep", path)
	}
	recs := make([]Record, len(payloads))
	for i, p := range payloads {
		if recs[i], err = decodeStoreRecord(p); err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, i+1, err)
		}
	}
	s, _ := summarizeRows(len(recs),
		func(i int) resultstore.Row { return RowFromRecord(recs[i]) },
		func(i int) (Record, error) { return recs[i], nil })
	s.TornTail = true
	return s, nil
}

// summarizeRows aggregates n records in append order from their index
// rows: the latest record per campaign index wins, infra records are
// counted apart, and only failed campaigns are fetched in full (for
// their mismatch strings and repro lines).
func summarizeRows(n int, row func(int) resultstore.Row, failure func(int) (Record, error)) (*CheckpointSummary, error) {
	s := &CheckpointSummary{Records: n, Designs: make(map[string]int), Avail: make(map[string]*AvailSummary)}
	latest := make(map[int64]int)
	var order []int64
	for i := 0; i < n; i++ {
		idx := row(i).Index
		if _, seen := latest[idx]; !seen {
			order = append(order, idx)
		}
		latest[idx] = i
	}
	slices.Sort(order)
	s.Campaigns = len(order)
	for _, idx := range order {
		r := row(latest[idx])
		s.Designs[r.Design]++
		if r.Infra {
			s.Infra++
			continue
		}
		if r.Failed() {
			rec, err := failure(latest[idx])
			if err != nil {
				return nil, err
			}
			s.Failures = append(s.Failures, rec)
			continue
		}
		if r.MidRun {
			s.MidRun++
		}
		s.Commits += r.Commits
		s.Torn += r.Torn
		s.Dropped += r.Dropped
		s.Restarts += int(r.Restarts)
		mergeAvail(s.Avail, availFromRow(r))
	}
	return s, nil
}
