package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"silo/internal/harness"
	"silo/internal/resultstore"
)

// exportJSONL writes every record payload of the sealed store at path
// to w, each followed by a newline, in append order (superseded
// duplicates and infra records included). A payload is
// json.Marshal(record), so the output is byte for byte the JSONL
// stream older sweeps checkpointed to, and convertJSONL reads it back
// into an identical store.
func exportJSONL(w io.Writer, path string) error {
	st, err := resultstore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	bw := bufio.NewWriter(w) // write errors are sticky; Flush reports them
	for i := 0; i < st.Count(); i++ {
		p, err := st.Payload(i)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		bw.Write(p)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// convertJSONL imports a JSONL checkpoint stream into a sealed store
// at outPath, preserving the full record history — duplicates, infra
// records and order included — so the store summarizes exactly as the
// stream did. The parse is strict: an empty stream or corruption
// mid-stream fails the conversion; a torn final line (interrupted
// writer) is tolerated and reported. Returns the records written and
// whether a torn tail was dropped.
func convertJSONL(r io.Reader, outPath string) (records int, tornTail bool, err error) {
	w, err := resultstore.NewWriter(outPath)
	if err != nil {
		return 0, false, err
	}
	abort := func(e error) (int, bool, error) {
		w.Abort()
		return 0, false, e
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	lineNo, badLine := 0, 0
	var badErr error
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if badErr != nil {
			return abort(fmt.Errorf("line %d: %w (corrupt record mid-stream; the file is damaged, not merely interrupted)", badLine, badErr))
		}
		var rec harness.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			badLine, badErr = lineNo, err
			continue
		}
		// Re-marshal rather than copying the line: the store payload is
		// canonically json.Marshal(rec), which keeps store payloads
		// byte-identical whether written by a fleet or by conversion.
		enc, err := json.Marshal(rec)
		if err != nil {
			return abort(err)
		}
		if err := w.Append(harness.RowFromRecord(rec), enc); err != nil {
			return abort(err)
		}
		records++
	}
	if err := sc.Err(); err != nil {
		return abort(fmt.Errorf("reading stream: %w", err))
	}
	if records == 0 {
		if badErr != nil {
			return abort(errors.New("stream holds only a torn partial record (writer died mid-first-write); re-run the sweep"))
		}
		return abort(errors.New("no records (empty stream); was the sweep run with -out?"))
	}
	if err := w.Seal(); err != nil {
		return 0, false, err
	}
	return records, badErr != nil, nil
}
