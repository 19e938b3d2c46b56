package explore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"silo/internal/harness"
)

// ShardPaths names the N store shards behind a base path:
// grid.srs → grid-0.srs … grid-(N-1).srs.
func ShardPaths(base string, n int) []string {
	ext := filepath.Ext(base)
	stem := strings.TrimSuffix(base, ext)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s-%d%s", stem, i, ext)
	}
	return paths
}

// ShardedSink fans the fleet's checkpoint stream out over N result
// stores, routing record index i to shard i%N — a deterministic
// partition, so any two sweeps of the same grid shard identically and
// silo-report -merge can fold the shards back into one store. Write is
// already serialized by the fleet, so the shards need no locking.
type ShardedSink struct {
	shards []*harness.CheckpointSink
}

// OpenShardedSink opens N store shards for the sweep at base.
func OpenShardedSink(base string, n int) (*ShardedSink, error) {
	s := &ShardedSink{}
	for _, p := range ShardPaths(base, n) {
		sink, err := harness.OpenCheckpointSink(p)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, sink)
	}
	return s, nil
}

func (s *ShardedSink) shard(index int) *harness.CheckpointSink {
	return s.shards[index%len(s.shards)]
}

// Encode marshals the record once (any shard encodes identically).
func (s *ShardedSink) Encode(r harness.Record) ([]byte, error) {
	return s.shard(r.Index).Encode(r)
}

// Write appends the encoded record to its index's shard.
func (s *ShardedSink) Write(r harness.Record, enc []byte) error {
	return s.shard(r.Index).Write(r, enc)
}

// Seed pre-populates each shard with its share of the resumed records
// (index i goes to shard i%N, as in Write), so every sealed shard is
// complete even though the fleet will not re-emit its resumed
// campaigns.
func (s *ShardedSink) Seed(recs map[int]harness.Record) error {
	parts := make([]map[int]harness.Record, len(s.shards))
	for k := range parts {
		parts[k] = make(map[int]harness.Record)
	}
	for i, r := range recs {
		parts[i%len(s.shards)][i] = r
	}
	for k, sink := range s.shards {
		if err := sink.Seed(parts[k]); err != nil {
			return err
		}
	}
	return nil
}

// Close seals every shard, returning the first error.
func (s *ShardedSink) Close() error {
	var first error
	for _, sink := range s.shards {
		if err := sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LoadShards reads every shard of an interrupted or completed sweep
// for resume, with the same artifact tolerance as LoadRecords (sealed
// stores, unsealed temp segments). Shards a killed sweep never created
// simply contribute nothing.
func LoadShards(base string, n int) (map[int]harness.Record, error) {
	out := make(map[int]harness.Record)
	for _, p := range ShardPaths(base, n) {
		recs, err := harness.LoadRecords(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for i, r := range recs {
			out[i] = r
		}
	}
	return out, nil
}
