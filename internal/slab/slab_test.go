package slab

import (
	"sync"
	"testing"
)

func TestTakeMatchesLengthAndClears(t *testing.T) {
	var l List[[]uint64]
	short, long := []uint64{1, 2, 3}, []uint64{4, 5, 6, 7, 8}
	Give(&l, short)
	Give(&l, long)
	Give(&l, nil) // dropped: an empty slab is never filed

	got := Take(&l, 3)
	if &got[0] != &short[0] {
		t.Fatal("Take(3) did not return the 3-element slab given back")
	}
	got = Take(&l, 5)
	if &got[0] != &long[0] {
		t.Fatal("Take(5) did not return the 5-element slab given back")
	}
	for i, v := range long {
		if v != 0 {
			t.Fatalf("taken slab holds %d at %d, want it cleared", v, i)
		}
	}
	if fresh := Take(&l, 3); &fresh[0] == &short[0] || len(fresh) != 3 {
		t.Fatal("Take(3) on a list without one did not make a new 3-element slab")
	}
	if _, ok := l.Get(0); ok {
		t.Fatal("the empty slab given back was filed")
	}
}

func TestFullListDropsPuts(t *testing.T) {
	l := new(List[int])
	for i := 0; i < listCap+10; i++ {
		l.Put(1, i)
	}
	n := 0
	for {
		v, ok := l.Get(1)
		if !ok {
			break
		}
		if v >= listCap {
			t.Fatalf("the list kept %d, a value put after it was full", v)
		}
		n++
	}
	if n != listCap {
		t.Fatalf("the list kept %d values, want its capacity %d", n, listCap)
	}
}

// TestConcurrentTakeGive hands slabs between goroutines, as harness
// workers share the lists. A slab must belong to one taker at a time: each
// fills its slab with its own mark and checks it is still there before
// giving it back. Run it under -race.
func TestConcurrentTakeGive(t *testing.T) {
	var l List[[]int]
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := Take(&l, 16+i%3)
				for j := range s {
					if s[j] != 0 {
						t.Errorf("goroutine %d took a slab holding %d", g, s[j])
						return
					}
					s[j] = g
				}
				for j := range s {
					if s[j] != g {
						t.Errorf("goroutine %d's slab was written by goroutine %d", g, s[j])
						return
					}
				}
				Give(&l, s)
			}
		}()
	}
	wg.Wait()
}
