package harness

import (
	"fmt"
	"sort"

	"silo/internal/resultstore"
)

// MergeStores folds sealed result stores into one compacted store at
// dst: the latest record per campaign index wins (inputs in argument
// order, append order within each), rows and payloads are copied
// verbatim, embedded traces follow their records, and the output is
// written in ascending index order. The merge is a pure function of the
// inputs, so merging a sweep's shards yields a store whose summary is
// byte-identical to a straight-through single-store run of the same
// sweep. Returns the number of records written.
func MergeStores(dst string, srcs []string) (int, error) {
	type entry struct {
		row     resultstore.Row
		payload []byte
		trace   []byte
	}
	latest := make(map[int64]entry)
	for _, src := range srcs {
		st, err := resultstore.Open(src)
		if err != nil {
			return 0, fmt.Errorf("merge: %w", convertHint(src, err))
		}
		for i := 0; i < st.Count(); i++ {
			row := st.Row(i)
			payload, err := st.Payload(i)
			if err != nil {
				st.Close()
				return 0, fmt.Errorf("merge %s record %d: %w", src, i, err)
			}
			e := entry{row: row, payload: append([]byte(nil), payload...)}
			if row.HasTrace() {
				if e.trace, err = st.Trace(i); err != nil {
					st.Close()
					return 0, fmt.Errorf("merge %s trace %d: %w", src, i, err)
				}
			}
			latest[row.Index] = e
		}
		st.Close()
	}
	idxs := make([]int64, 0, len(latest))
	for i := range latest {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })

	w, err := resultstore.NewWriter(dst)
	if err != nil {
		return 0, err
	}
	for _, i := range idxs {
		e := latest[i]
		if err := w.Append(e.row, e.payload); err != nil {
			return 0, fmt.Errorf("merge: writing record %d: %w", i, err)
		}
		if e.trace != nil {
			if err := w.AttachTrace(i, e.trace); err != nil {
				return 0, fmt.Errorf("merge: writing trace %d: %w", i, err)
			}
		}
	}
	if err := w.Seal(); err != nil {
		return 0, err
	}
	return len(idxs), nil
}
