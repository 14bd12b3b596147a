// Package intset implements the IntegerSet microbenchmarks of the paper's
// evaluation (§5): search/insert/remove operations on an ordered set of
// integers backed by a linked list, a skip list, a red-black tree, or a
// hash table, synchronised with atomic blocks through the TM ABI.
//
// Following the paper's setup: operations are completely random over
// random elements; the initial size of a set is half the key range; no
// insertion or removal happens if the element is already present or
// absent, respectively.
package intset

import (
	"fmt"
	"math"

	"asfstack"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/txlib"
)

// Structures lists the four IntegerSet data structures in figure order.
var Structures = []string{"linkedlist", "skiplist", "rbtree", "hashset"}

// Config describes one IntegerSet run: the machine spec plus the set and
// its operation mix.
type Config struct {
	asfstack.Options
	Structure string // one of Structures
	Range     uint64 // keys drawn from [0, Range)
	UpdatePct int    // 20 → 10% ins / 10% rem / 80% search; 100 → 50/50
	// InitialSize overrides the default population (Range/2).
	InitialSize int
	// OpsPerThread is the measured operation count per thread.
	OpsPerThread int
	// EarlyRelease enables the hand-over-hand linked-list traversal
	// (Fig. 8); only the linked list uses it.
	EarlyRelease bool
	// HashBits overrides the hash-set table size (2^HashBits buckets);
	// Table 1 forces the paper's 2^17-bucket table.
	HashBits uint
}

// Result carries the measurements a run produces.
type Result struct {
	Config Config
	asfstack.RunResult
}

type setIface interface {
	Contains(tx tm.Tx, k uint64) bool
	Insert(tx tm.Tx, k uint64) bool
	Remove(tx tm.Tx, k uint64) bool
}

type rbAsSet struct{ t *txlib.RBTree }

func (s rbAsSet) Contains(tx tm.Tx, k uint64) bool { return s.t.Contains(tx, k) }
func (s rbAsSet) Insert(tx tm.Tx, k uint64) bool   { return s.t.Insert(tx, k, mem0(k)) }
func (s rbAsSet) Remove(tx tm.Tx, k uint64) bool   { return s.t.Remove(tx, k) }

func mem0(k uint64) uint64 { return k }

// hashBits picks the table size: the paper's hash set uses 2^17 buckets
// for the large configuration; smaller ranges shrink accordingly so the
// table stays about 4× the range.
func hashBits(r uint64) uint {
	bits := uint(4)
	for ; bits < 17 && (uint64(1)<<bits) < 4*r; bits++ {
	}
	return bits
}

// Run executes one configuration and returns its measurements. A bad
// configuration (unknown structure, an empty or oversized key range, an
// update percentage outside 0..100, a negative operation count, an initial
// size outside 0..Range, a hash table too large for core 0's arena) is
// reported as an error, not a panic or a hang, so sweep harnesses can fail
// one cell and continue.
func Run(cfg Config) (Result, error) {
	switch cfg.Structure {
	case "linkedlist", "skiplist", "rbtree", "hashset":
	default:
		return Result{}, fmt.Errorf("intset: unknown structure %q (want one of %v)",
			cfg.Structure, Structures)
	}
	if cfg.Range == 0 || cfg.Range > math.MaxInt64 {
		return Result{}, fmt.Errorf("intset: %s: key range %d outside 1..2^63-1", cfg.Structure, cfg.Range)
	}
	if cfg.UpdatePct < 0 || cfg.UpdatePct > 100 {
		return Result{}, fmt.Errorf("intset: update percentage %d outside 0..100", cfg.UpdatePct)
	}
	if cfg.OpsPerThread < 0 {
		return Result{}, fmt.Errorf("intset: negative operation count %d", cfg.OpsPerThread)
	}
	// Setup draws distinct keys until the set holds InitialSize of them, so
	// a size above the key range would never finish.
	if cfg.InitialSize < 0 || uint64(cfg.InitialSize) > cfg.Range {
		return Result{}, fmt.Errorf("intset: initial size %d outside 0..%d (the key range)",
			cfg.InitialSize, cfg.Range)
	}
	if cfg.OpsPerThread == 0 {
		cfg.OpsPerThread = 1500
	}
	if cfg.InitialSize == 0 {
		cfg.InitialSize = int(cfg.Range / 2)
	}
	s, err := asfstack.Build(cfg.Options)
	if err != nil {
		return Result{}, err
	}
	cfg.Options = s.Opts
	bits := cfg.HashBits
	if bits == 0 {
		bits = hashBits(cfg.Range)
	}
	if cfg.Structure == "hashset" {
		// Setup carves the bucket array out of core 0's arena. The shift
		// also rejects bits >= 64, where 1<<bits would wrap to zero.
		if arena := s.Heap.Arena(0).Remaining(); arena/txlib.BucketBytes>>bits == 0 {
			return Result{}, fmt.Errorf("intset: hash table of 2^%d buckets does not fit core 0's %d-byte arena",
				bits, arena)
		}
	}

	var set setIface
	s.Setup(func(tx tm.Tx) {
		switch cfg.Structure {
		case "linkedlist":
			l := txlib.NewList(tx)
			l.EarlyRelease = cfg.EarlyRelease
			set = l
		case "skiplist":
			set = txlib.NewSkipList(tx)
		case "rbtree":
			set = rbAsSet{txlib.NewRBTree(tx)}
		case "hashset":
			set = txlib.NewHashSet(tx, bits)
		}
		// Populate to the initial size with distinct random keys.
		rng := tx.CPU().Rand()
		for n := 0; n < cfg.InitialSize; {
			if set.Insert(tx, uint64(rng.Int63n(int64(cfg.Range)))) {
				n++
			}
		}
	})

	run := s.Measure(func(c *sim.CPU, _ uint64) {
		// The core builds its three atomic bodies once; the loop only fills
		// the key they read. Every runtime returns from Atomic after the
		// body's final execution and re-runs the same func value on retry,
		// so each execution sees the key of its own operation.
		var k uint64
		insert := func(tx tm.Tx) { set.Insert(tx, k) }
		remove := func(tx tm.Tx) { set.Remove(tx, k) }
		contains := func(tx tm.Tx) { set.Contains(tx, k) }
		rng := c.Rand()
		for i := 0; i < cfg.OpsPerThread; i++ {
			k = uint64(rng.Int63n(int64(cfg.Range)))
			r := rng.Intn(100)
			switch {
			case r < cfg.UpdatePct/2:
				s.Atomic(c, insert)
			case r < cfg.UpdatePct:
				s.Atomic(c, remove)
			default:
				s.Atomic(c, contains)
			}
		}
	})
	return Result{Config: cfg, RunResult: run}, nil
}
