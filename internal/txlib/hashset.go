package txlib

import (
	"asfstack/internal/mem"
	"asfstack/internal/tm"
)

// HashSet is a chained hash table implementing an integer set — the
// IntegerSet hash-set workload. The bucket array uses 16 bytes per bucket
// (chain head + pad), four buckets per cache line, matching the geometry
// the paper reports (2^17 buckets × 16 B ≈ 2 MiB, larger than L1+L2 —
// which is why its transactional accesses are cache-miss bound and the
// STM/ASF barrier ratio shrinks to ≈9×, Table 1).
//
// Chain nodes are 16 bytes (next, key), packed.
type HashSet struct {
	buckets mem.Addr
	mask    uint64
}

// BucketBytes is the size of one bucket of a HashSet or HashMap table.
const BucketBytes = 16

// NewHashSet builds a table with 2^bits buckets.
func NewHashSet(tx tm.Tx, bits uint) *HashSet {
	n := uint64(1) << bits
	b := tx.AllocLines(int(n * BucketBytes / mem.LineSize))
	return &HashSet{buckets: b, mask: n - 1}
}

// hash mixes k (Fibonacci hashing).
func (h *HashSet) bucket(k uint64) mem.Addr {
	idx := (k * 0x9E3779B97F4A7C15) >> 1 & h.mask
	return h.buckets + mem.Addr(idx*BucketBytes)
}

// Contains reports whether k is in the set.
func (h *HashSet) Contains(tx tm.Tx, k uint64) bool {
	tx.CPU().Exec(10) // hash + dispatch
	cur := mem.Addr(tx.Load(h.bucket(k)))
	for cur != 0 {
		tx.CPU().Exec(4)
		if uint64(tx.Load(field(cur, 1))) == k {
			return true
		}
		cur = mem.Addr(tx.Load(field(cur, 0)))
	}
	return false
}

// Insert adds k, returning false if already present.
func (h *HashSet) Insert(tx tm.Tx, k uint64) bool {
	tx.CPU().Exec(10)
	head := h.bucket(k)
	cur := mem.Addr(tx.Load(head))
	for p := cur; p != 0; {
		tx.CPU().Exec(4)
		if uint64(tx.Load(field(p, 1))) == k {
			return false
		}
		p = mem.Addr(tx.Load(field(p, 0)))
	}
	n := tx.Alloc(16)
	tx.Store(field(n, 1), mem.Word(k))
	tx.Store(field(n, 0), mem.Word(cur))
	tx.Store(head, mem.Word(n))
	return true
}

// Remove deletes k, returning false if absent.
func (h *HashSet) Remove(tx tm.Tx, k uint64) bool {
	tx.CPU().Exec(10)
	head := h.bucket(k)
	var prev mem.Addr
	cur := mem.Addr(tx.Load(head))
	for cur != 0 {
		tx.CPU().Exec(4)
		next := tx.Load(field(cur, 0))
		if uint64(tx.Load(field(cur, 1))) == k {
			if prev == 0 {
				tx.Store(head, next)
			} else {
				tx.Store(field(prev, 0), next)
			}
			tx.Free(cur)
			return true
		}
		prev, cur = cur, mem.Addr(next)
	}
	return false
}

// Size counts elements (verification; O(buckets + n)).
func (h *HashSet) Size(tx tm.Tx) int {
	n := 0
	for i := uint64(0); i <= h.mask; i++ {
		cur := mem.Addr(tx.Load(h.buckets + mem.Addr(i*BucketBytes)))
		for cur != 0 {
			n++
			cur = mem.Addr(tx.Load(field(cur, 0)))
		}
	}
	return n
}
