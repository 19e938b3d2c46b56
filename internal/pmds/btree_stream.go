package pmds

import (
	"math/rand"

	"silo/internal/mem"
	"silo/internal/sim"
)

// This file unrolls the BTree insert transaction loop into an explicit
// state machine implementing sim.OpStream, so the hottest first-party
// workload runs on the engine with no unit buffer or Ctx calls at all:
// each Next is a handful of branches, each Deliver a field store. The machine mirrors
// Insert/splitChild/insertNonFull operation for operation — every Load
// and Store below corresponds to one Accessor call in btree.go, in the
// same order, so the op sequence (and therefore every simulated result)
// is bit-identical to running BTree.Insert on sim.NewStream. Keep
// the two in sync when changing either; the workload package's
// TestStateMachinesMatchReferenceLoops drives them side by side.

// btreeInsertStream states. Each state either emits exactly one op (its
// successor state consumes the delivered value) or computes and falls
// through. st* names follow the control flow of btree.go: stRs* is the
// root split in Insert, stSc* is splitChild, the rest is insertNonFull.
const (
	btTx = iota
	btOp
	btRoot
	btRootMeta
	btRs1
	btRs2
	btRs3
	btRs4
	btInfMeta
	btScan
	btScanCmp
	btEq
	btLeafOrDesc
	btLeafShift
	btLeafShiftStore
	btLeafKey
	btLeafMeta
	btInsertDone
	btChild
	btChildMeta
	btPostSplit
	btPostEq
	btPostGt
	btDescend
	btSc0
	btSc1
	btSc2
	btSc3
	btSc4
	btSc5
	btSc6
	btSc7
	btSc8
	btSc9
	btSc10
	btSc11
	btSc12
	btSc13
	btSc14
	btSc15
	btSc16
	btSc17
	btSc18
	btSc19
	btSc20
)

type btreeInsertStream struct {
	t        *BTree
	rng      *rand.Rand
	keyRange int
	opsPerTx int
	txLeft   int

	pc   int
	val  mem.Word // last delivered load value
	done bool

	// Registers mirroring the locals of Insert/insertNonFull.
	key  mem.Word
	opJ  int
	root mem.Addr
	n    mem.Addr
	c    mem.Addr
	meta mem.Word
	cnt  int
	i    int

	// Registers mirroring the locals of splitChild (plus sp, Insert's
	// new root). sci is splitChild's i parameter; ret is the state to
	// resume when splitChild returns.
	sp     mem.Addr
	x      mem.Addr
	y, z   mem.Addr
	ymeta  mem.Word
	xmeta  mem.Word
	leaf   bool
	median mem.Word
	xn     int
	j      int
	sci    int
	ret    int
}

// InsertStream returns the workload transaction loop
//
//	for txns { TxBegin; opsPerTx × Insert(rand key in [1, keyRange]); TxEnd }
//
// as a native OpStream over this tree.
func (t *BTree) InsertStream(rng *rand.Rand, txns, opsPerTx, keyRange int) sim.OpStream {
	return &btreeInsertStream{t: t, rng: rng, keyRange: keyRange, opsPerTx: opsPerTx, txLeft: txns}
}

func load(a mem.Addr) (sim.Op, bool) {
	return sim.Op{Kind: sim.OpLoad, Addr: a}, true
}

func store(a mem.Addr, v mem.Word) (sim.Op, bool) {
	return sim.Op{Kind: sim.OpStore, Addr: a, Data: v}, true
}

// Next implements sim.OpStream.
func (s *btreeInsertStream) Next() (sim.Op, bool) {
	if s.done {
		return sim.Op{}, false
	}
	t := s.t
	for {
		switch s.pc {

		// --- transaction loop ---
		case btTx:
			if s.txLeft == 0 {
				s.done = true
				return sim.Op{}, false
			}
			s.opJ = 0
			s.pc = btOp
			return sim.Op{Kind: sim.OpTxBegin}, true
		case btOp:
			if s.opJ == s.opsPerTx {
				s.txLeft--
				s.pc = btTx
				return sim.Op{Kind: sim.OpTxEnd}, true
			}
			s.key = mem.Word(s.rng.Intn(s.keyRange)) + 1
			s.pc = btRoot
			return load(t.rootPtr)

		// --- Insert: root fetch and preemptive root split ---
		case btRoot:
			s.root = mem.Addr(s.val)
			s.pc = btRootMeta
			return load(word(s.root, 0))
		case btRootMeta:
			if btN(s.val) == btMaxKeys {
				s.sp = t.heap.AllocLines(t.arena, 1)
				s.pc = btRs1
				return store(word(s.sp, 0), 0) // newNode(leaf=false)
			}
			s.n = s.root
			s.pc = btInfMeta
			return load(word(s.n, 0))
		case btRs1:
			s.pc = btRs2
			return store(word(s.sp, 4), mem.Word(s.root))
		case btRs2:
			s.x, s.sci, s.ret = s.sp, 0, btRs3
			s.pc = btSc0
		case btRs3:
			s.pc = btRs4
			return store(t.rootPtr, mem.Word(s.sp))
		case btRs4:
			s.n = s.sp
			s.pc = btInfMeta
			return load(word(s.n, 0))

		// --- insertNonFull descent ---
		case btInfMeta:
			s.meta = s.val
			s.cnt = btN(s.meta)
			s.i = 0
			s.pc = btScan
		case btScan:
			if s.i < s.cnt {
				s.pc = btScanCmp
				return load(word(s.n, 1+s.i))
			}
			s.pc = btLeafOrDesc
		case btScanCmp:
			if s.key > s.val {
				s.i++
				s.pc = btScan
				continue
			}
			s.pc = btEq
			return load(word(s.n, 1+s.i)) // the equality re-read
		case btEq:
			if s.key == s.val {
				s.pc = btInsertDone // duplicate
				continue
			}
			s.pc = btLeafOrDesc
		case btLeafOrDesc:
			if btLeaf(s.meta) {
				s.j = s.cnt
				s.pc = btLeafShift
				continue
			}
			s.pc = btChild
			return load(word(s.n, 4+s.i))
		case btLeafShift:
			if s.j > s.i {
				s.pc = btLeafShiftStore
				return load(word(s.n, 1+s.j-1))
			}
			s.pc = btLeafKey
		case btLeafShiftStore:
			s.pc = btLeafShift
			s.j--
			return store(word(s.n, 1+s.j+1), s.val)
		case btLeafKey:
			s.pc = btLeafMeta
			return store(word(s.n, 1+s.i), s.key)
		case btLeafMeta:
			s.pc = btInsertDone
			return store(word(s.n, 0), btMeta(true, s.cnt+1))
		case btInsertDone:
			s.opJ++
			s.pc = btOp
		case btChild:
			s.c = mem.Addr(s.val)
			s.pc = btChildMeta
			return load(word(s.c, 0))
		case btChildMeta:
			if btN(s.val) == btMaxKeys {
				s.x, s.sci, s.ret = s.n, s.i, btPostSplit
				s.pc = btSc0
				continue
			}
			s.n = s.c
			s.pc = btInfMeta
			return load(word(s.n, 0))
		case btPostSplit:
			s.pc = btPostEq
			return load(word(s.n, 1+s.i))
		case btPostEq:
			if s.key == s.val {
				s.pc = btInsertDone // key was the hoisted median
				continue
			}
			s.pc = btPostGt
			return load(word(s.n, 1+s.i)) // the key > re-read
		case btPostGt:
			if s.key > s.val {
				s.i++
			}
			s.pc = btDescend
			return load(word(s.n, 4+s.i))
		case btDescend:
			s.n = mem.Addr(s.val)
			s.pc = btInfMeta
			return load(word(s.n, 0))

		// --- splitChild(x, sci) ---
		case btSc0:
			s.pc = btSc1
			return load(word(s.x, 4+s.sci))
		case btSc1:
			s.y = mem.Addr(s.val)
			s.pc = btSc2
			return load(word(s.y, 0))
		case btSc2:
			s.ymeta = s.val
			s.leaf = btLeaf(s.ymeta)
			s.z = t.heap.AllocLines(t.arena, 1)
			var m0 mem.Word
			if s.leaf {
				m0 = 1
			}
			s.pc = btSc3
			return store(word(s.z, 0), m0) // newNode(leaf)
		case btSc3:
			s.pc = btSc4
			return load(word(s.y, 1+2))
		case btSc4:
			s.pc = btSc5
			return store(word(s.z, 1), s.val)
		case btSc5:
			if !s.leaf {
				s.pc = btSc6
				return load(word(s.y, 4+2))
			}
			s.pc = btSc9
		case btSc6:
			s.pc = btSc7
			return store(word(s.z, 4), s.val)
		case btSc7:
			s.pc = btSc8
			return load(word(s.y, 4+3))
		case btSc8:
			s.pc = btSc9
			return store(word(s.z, 5), s.val)
		case btSc9:
			s.pc = btSc10
			return store(word(s.z, 0), btMeta(s.leaf, 1))
		case btSc10:
			s.pc = btSc11
			return load(word(s.y, 1+1))
		case btSc11:
			s.median = s.val
			s.pc = btSc12
			return store(word(s.y, 0), btMeta(s.leaf, 1))
		case btSc12:
			s.pc = btSc13
			return load(word(s.x, 0))
		case btSc13:
			s.xmeta = s.val
			s.xn = btN(s.xmeta)
			s.j = s.xn
			s.pc = btSc14
		case btSc14:
			if s.j > s.sci {
				s.pc = btSc15
				return load(word(s.x, 1+s.j-1))
			}
			s.j = s.xn + 1
			s.pc = btSc16
		case btSc15:
			s.pc = btSc14
			s.j--
			return store(word(s.x, 1+s.j+1), s.val)
		case btSc16:
			if s.j > s.sci+1 {
				s.pc = btSc17
				return load(word(s.x, 4+s.j-1))
			}
			s.pc = btSc18
		case btSc17:
			s.pc = btSc16
			s.j--
			return store(word(s.x, 4+s.j+1), s.val)
		case btSc18:
			s.pc = btSc19
			return store(word(s.x, 1+s.sci), s.median)
		case btSc19:
			s.pc = btSc20
			return store(word(s.x, 4+s.sci+1), mem.Word(s.z))
		case btSc20:
			s.pc = s.ret
			return store(word(s.x, 0), btMeta(btLeaf(s.xmeta), s.xn+1))
		}
	}
}

// Deliver implements sim.OpStream. The crash sentinel ends the stream.
func (s *btreeInsertStream) Deliver(r sim.Result) {
	if r.Latency < 0 {
		s.done = true
		return
	}
	s.val = r.Value
}
