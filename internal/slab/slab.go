// Package slab keeps host memory that outlives one simulated machine. A
// sweep runs hundreds of short machines back to back, and each used to
// leave its host slabs to the garbage collector. A released machine now
// hands them to process-wide free lists instead: the words of its written
// pages, its cache block chunks, TLB arrays and directory tables, its line
// buffer, and its cores' random generators. The next machine takes them
// before it allocates.
//
// A slab is taken cleared and a generator is reseeded, so a machine built
// from recycled parts cannot be told apart from a fresh one: which slab a
// machine gets never reaches simulated results, and the lists may be
// shared by every harness worker.
package slab

import "sync"

// listCap is how many values one List keeps. A List's storage is a fixed
// array, so a Put never allocates, not even a cold process's first, and a
// List never holds more than listCap values. In practice it holds what the
// largest cells that ran at once released: a cell takes from the list
// before it allocates.
const listCap = 4096

// List is a process-wide free list: values filed under an integer key (a
// slab's length), guarded by a mutex. The zero List is empty and ready.
type List[T any] struct {
	mu   sync.Mutex
	n    int
	keys [listCap]int
	vals [listCap]T
}

// Get removes a value filed under key and returns it, or reports false
// when the list holds none.
func (l *List[T]) Get(key int) (T, bool) {
	var zero T
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := l.n - 1; i >= 0; i-- {
		if l.keys[i] == key {
			v := l.vals[i]
			l.n--
			l.keys[i], l.vals[i] = l.keys[l.n], l.vals[l.n]
			l.vals[l.n] = zero
			return v, true
		}
	}
	return zero, false
}

// Put files v under key. A full list drops v, leaving it to the garbage
// collector.
func (l *List[T]) Put(key int, v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < listCap {
		l.keys[l.n], l.vals[l.n] = key, v
		l.n++
	}
}

// Take returns a slab of n zero elements: one of length n from l, cleared
// as it is taken, or a new one when l holds none.
func Take[E any](l *List[[]E], n int) []E {
	if s, ok := l.Get(n); ok {
		clear(s)
		return s
	}
	return make([]E, n)
}

// Give files slab s in l under its length. The caller must not use s
// again. An empty slab is dropped, so giving a slice that was already
// given back and then set to nil is harmless.
func Give[E any](l *List[[]E], s []E) {
	if len(s) > 0 {
		l.Put(len(s), s)
	}
}
