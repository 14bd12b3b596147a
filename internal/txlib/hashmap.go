package txlib

import (
	"asfstack/internal/mem"
	"asfstack/internal/tm"
)

// HashMap is a chained hash table from uint64 keys to word values — the
// dictionary substrate for genome's segment table and intruder's
// reassembly map. Buckets are 16 bytes (chain head + pad); chain nodes are
// 24 bytes (next, key, value), packed.
type HashMap struct {
	buckets mem.Addr
	mask    uint64
}

// NewHashMap builds a map with 2^bits buckets.
func NewHashMap(tx tm.Tx, bits uint) *HashMap {
	n := uint64(1) << bits
	b := tx.AllocLines(int(n * BucketBytes / mem.LineSize))
	return &HashMap{buckets: b, mask: n - 1}
}

func (h *HashMap) bucket(k uint64) mem.Addr {
	idx := (k * 0x9E3779B97F4A7C15) >> 1 & h.mask
	return h.buckets + mem.Addr(idx*BucketBytes)
}

// Get returns the value at k.
func (h *HashMap) Get(tx tm.Tx, k uint64) (mem.Word, bool) {
	tx.CPU().Exec(10)
	cur := mem.Addr(tx.Load(h.bucket(k)))
	for cur != 0 {
		tx.CPU().Exec(4)
		if uint64(tx.Load(field(cur, 1))) == k {
			return tx.Load(field(cur, 2)), true
		}
		cur = mem.Addr(tx.Load(field(cur, 0)))
	}
	return 0, false
}

// Put inserts or updates k → v, returning true if the key was new.
func (h *HashMap) Put(tx tm.Tx, k uint64, v mem.Word) bool {
	tx.CPU().Exec(10)
	head := h.bucket(k)
	cur := mem.Addr(tx.Load(head))
	for p := cur; p != 0; {
		tx.CPU().Exec(4)
		if uint64(tx.Load(field(p, 1))) == k {
			tx.Store(field(p, 2), v)
			return false
		}
		p = mem.Addr(tx.Load(field(p, 0)))
	}
	n := tx.Alloc(24)
	tx.Store(field(n, 1), mem.Word(k))
	tx.Store(field(n, 2), v)
	tx.Store(field(n, 0), mem.Word(cur))
	tx.Store(head, mem.Word(n))
	return true
}

// PutIfAbsent inserts k → v only if k is absent, returning true on insert.
func (h *HashMap) PutIfAbsent(tx tm.Tx, k uint64, v mem.Word) bool {
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
	n := tx.Alloc(24)
	tx.Store(field(n, 1), mem.Word(k))
	tx.Store(field(n, 2), v)
	tx.Store(field(n, 0), mem.Word(cur))
	tx.Store(head, mem.Word(n))
	return true
}

// Remove deletes k, returning its value.
func (h *HashMap) Remove(tx tm.Tx, k uint64) (mem.Word, bool) {
	tx.CPU().Exec(10)
	head := h.bucket(k)
	var prev mem.Addr
	cur := mem.Addr(tx.Load(head))
	for cur != 0 {
		tx.CPU().Exec(4)
		next := tx.Load(field(cur, 0))
		if uint64(tx.Load(field(cur, 1))) == k {
			v := tx.Load(field(cur, 2))
			if prev == 0 {
				tx.Store(head, next)
			} else {
				tx.Store(field(prev, 0), next)
			}
			tx.Free(cur)
			return v, true
		}
		prev, cur = cur, mem.Addr(next)
	}
	return 0, false
}
