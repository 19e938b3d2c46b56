package cluster

import (
	"fmt"
	"sort"

	"silo/internal/sim"
)

// shadow is the cluster-level golden state. The simulator has god's-eye
// knowledge of when each node's machine commits a transaction, so the
// shadow updates at *apply* time: committed[key] is the value of the
// last Put whose Tx_end completed on the owning node, whether or not
// the client ever learned about it. Each key has exactly one owner and
// each node serializes requests on its single-core machine, so per-key
// commit order is total and the expected state is exact — no
// admissible-value sets, no linearizability search.
//
// Ack state is tracked separately to pin down the failover semantics
// the paper's crash flush buys:
//
//   - an acked Put must have committed (the node acks only after
//     Tx_end), so an ack for a never-committed value is a divergence;
//   - a committed-but-unacked Put (the crash ate the response) legally
//     surfaces after failover — reads and post-recovery PM state are
//     checked against committed state, not acked state;
//   - an *uncommitted* Put must never surface: recovery rolls it back
//     to committed[key], which the per-key recovered check enforces.
//
// Under replication (Replicas > 1) the shadow additionally tracks, per
// key, the highest *acked* version the client ever observed. Versions
// are assigned at primary commit from a global monotone counter, so
// per-key version order is per-key commit order. At every node crash
// the cluster checks the acked-survival invariant: some live replica of
// the key must have applied at least the acked version. In sync mode a
// violation is a divergence (the protocol promised the write was
// replicated before the ack); in bounded-async mode it is counted as an
// acked-but-lost write — reported, never hidden.
type shadow struct {
	committed   map[uint64]uint64          // key → last committed value
	everComm    map[uint64]map[uint64]bool // key → set of values ever committed
	ackedVer    map[uint64]uint64          // key → max version acked to a client
	ackedLost   int64                      // async: acked writes absent from every live replica at a crash
	divergences []string
}

func newShadow() *shadow {
	return &shadow{
		committed: make(map[uint64]uint64),
		everComm:  make(map[uint64]map[uint64]bool),
		ackedVer:  make(map[uint64]uint64),
	}
}

// commitPut records that the owning node's machine committed value val
// for key (called at service completion, cluster time now).
func (s *shadow) commitPut(key, val uint64) {
	s.committed[key] = val
	set := s.everComm[key]
	if set == nil {
		set = make(map[uint64]bool)
		s.everComm[key] = set
	}
	set[val] = true
}

// ackPut checks an acked Put: the value must have actually committed.
func (s *shadow) ackPut(key, val uint64, node int, now sim.Cycle) {
	if !s.everComm[key][val] {
		s.diverge("node %d: acked put key=%d val=%d never committed (now=%d)", node, key, val, now)
	}
}

// noteAcked records the version the client just saw acked for key —
// the high-water mark the acked-survival invariant checks at crashes.
func (s *shadow) noteAcked(key, ver uint64) {
	if ver > s.ackedVer[key] {
		s.ackedVer[key] = ver
	}
}

// checkGet checks a served Get against the expected word — the serving
// node's applied state (identical to the cluster-committed value at
// R = 1, and to the replica's own replicated prefix at R > 1).
func (s *shadow) checkGet(key, got, want uint64, node int, now sim.Cycle) {
	if got != want {
		s.diverge("node %d: get key=%d = %d want %d (now=%d)", node, key, got, want, now)
	}
}

// checkRecovered verifies every committed key owned by `node` against
// the post-recovery PM image via read (which peeks the device). Called
// after each crash's recovery completes; it is the cluster-level analog
// of harness.VerifyRecovery and additionally proves uncommitted
// in-flight Puts were rolled back.
func (s *shadow) checkRecovered(node int, owner func(uint64) int, read func(uint64) uint64, now sim.Cycle) {
	// Sorted key order keeps divergence reports deterministic (they feed
	// byte-identical JSONL checkpoints).
	keys := make([]uint64, 0, len(s.committed))
	for key := range s.committed {
		if owner(key) == node {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		want := s.committed[key]
		if got := read(key); got != want {
			s.diverge("node %d: recovered key=%d = %d want %d (now=%d)", node, key, got, want, now)
		}
	}
}

func (s *shadow) diverge(format string, args ...any) {
	if len(s.divergences) < 64 { // bound the report; one divergence fails the run anyway
		s.divergences = append(s.divergences, fmt.Sprintf(format, args...))
	}
}
