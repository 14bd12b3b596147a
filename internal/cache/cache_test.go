package cache

import (
	"runtime"
	"testing"
	"unsafe"

	"asfstack/internal/mem"
	"asfstack/internal/slab"
)

// allocated returns how many heap objects and bytes the process allocated
// while run ran.
func allocated(run func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// drain empties a free list of its slabs of the given lengths, so the
// next construction allocates as a cold process's would.
func drain[E any](l *slab.List[[]E], lengths ...int) {
	for _, n := range lengths {
		for {
			if _, ok := l.Get(n); !ok {
				break
			}
		}
	}
}

// TestHierarchyBytesFollowFootprint: a hierarchy's arrays cost the host the
// lines a run keeps resident, not the whole geometry. Building the 64-core,
// 4-socket Barcelona hierarchy allocates under 1 MiB, each access allocates
// at most one pool chunk (none once its sets are wide enough), and 600
// sparse accesses, which fill a few ways of each of many blocks, take at
// most 8 chunks. The accesses stay below the directory's first growth.
// Built again after the first is released, the hierarchy allocates no TLB
// array and no directory table: each core's two arrays and the table are
// ones the released hierarchy gave back, and no array serves two cores.
func TestHierarchyBytesFollowFootprint(t *testing.T) {
	// Keep the runtime's own allocations out of the counts: with one P,
	// ReadMemStats restarting the world wakes no idle P, so it starts no
	// OS thread (whose runtime structures are heap objects), and the
	// collection here starts the collector's workers before any count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Barcelona()
	drain(&tlbArrays, cfg.TLB1Entries, cfg.TLB2Entries)
	drain(&dirTables, dirMinSlots)
	drain(&blockChunks, poolChunk)
	runtime.GC()
	cfg.Sockets = 4
	var h *Hierarchy
	objects, bytes := allocated(func() { h = New(64, cfg) })
	t.Logf("New(64) on 4 sockets: %d objects, %.2f MiB", objects, float64(bytes)/(1<<20))
	if bytes >= 1<<20 {
		t.Fatalf("New(64) on 4 sockets allocated %.2f MiB, want < 1 MiB", float64(bytes)/(1<<20))
	}
	chunk := uint64(poolChunk * unsafe.Sizeof(entry{}))
	var chunks uint64
	for i := 0; i < 600; i++ {
		c, addr := i%64, mem.Addr(i*i*mem.LineSize*37)
		objects, bytes := allocated(func() { h.Access(c, addr, i%3 == 0) })
		if objects > 1 || bytes > chunk {
			t.Fatalf("access %d (core %d, %v) allocated %d objects, %d bytes; want at most one %d-byte chunk",
				i, c, addr, objects, bytes, chunk)
		}
		chunks += objects
	}
	t.Logf("600 accesses allocated %d chunks", chunks)
	if chunks > 8 {
		t.Fatalf("600 accesses allocated %d chunks, want at most 8", chunks)
	}

	given := map[*tlbEntry]bool{}
	for i := range h.cores {
		given[&h.cores[i].tlb1.ents[0]] = true
		given[&h.cores[i].tlb2.ents[0]] = true
	}
	table := &h.dir.slots[0]
	h.Release()
	h = New(64, cfg)
	for i := range h.cores {
		for _, ents := range [][]tlbEntry{h.cores[i].tlb1.ents, h.cores[i].tlb2.ents} {
			if !given[&ents[0]] {
				t.Fatalf("New(64) after a release gave core %d a %d-entry TLB array the released hierarchy did not give back",
					i, len(ents))
			}
			delete(given, &ents[0])
		}
	}
	if &h.dir.slots[0] != table {
		t.Fatal("New(64) after a release did not take the directory table the released hierarchy gave back")
	}
}

func TestHitLevels(t *testing.T) {
	h := New(1, Barcelona())
	cfg := Barcelona()

	r := h.Access(0, 0x1000, false)
	if r.Level != RAM {
		t.Fatalf("cold access served from %v", r.Level)
	}
	if r.Cycles < cfg.MemLat {
		t.Fatalf("cold access cost %d", r.Cycles)
	}
	r = h.Access(0, 0x1008, false)
	if r.Level != L1 || r.Cycles != cfg.L1Lat {
		t.Fatalf("warm access: %v, %d cycles", r.Level, r.Cycles)
	}
}

func TestL1AssociativityEviction(t *testing.T) {
	h := New(1, Barcelona())
	// 64 KB 2-way: 512 sets. Three lines with the same set index thrash.
	stride := mem.Addr(512 * mem.LineSize)
	for i := 0; i < 3; i++ {
		h.Access(0, mem.Addr(i)*stride, false)
	}
	// Line 0 must have left L1 (LRU victim), still in L2.
	if h.L1Resident(0, 0) {
		t.Fatal("line 0 survived a 3-way thrash of a 2-way set")
	}
	r := h.Access(0, 0, false)
	if r.Level != L2 {
		t.Fatalf("displaced line served from %v, want L2", r.Level)
	}
}

func TestCoherenceInvalidationOnWrite(t *testing.T) {
	h := New(2, Barcelona())
	h.Access(0, 0x2000, false)
	h.Access(1, 0x2000, false)
	// Core 1 writes: core 0's copy must be invalidated.
	h.Access(1, 0x2000, true)
	if h.L1Resident(0, 0x2000) {
		t.Fatal("write did not invalidate the other core's copy")
	}
	// Core 0 re-reads a dirty remote line: cache-to-cache transfer.
	r := h.Access(0, 0x2000, false)
	if r.Level != Remote {
		t.Fatalf("dirty remote line served from %v, want remote", r.Level)
	}
}

func TestEvictHookFiresWithSpecMark(t *testing.T) {
	h := New(1, Barcelona())
	var evicted []mem.Addr
	var specs []bool
	h.SetEvictHook(func(core int, line mem.Addr, spec bool) {
		evicted = append(evicted, line)
		specs = append(specs, spec)
	})
	h.Access(0, 0x3000, false)
	if !h.SetSpecRead(0, 0x3000, true) {
		t.Fatal("SetSpecRead on resident line failed")
	}
	stride := mem.Addr(512 * mem.LineSize)
	h.Access(0, 0x3000+stride, false)
	h.Access(0, 0x3000+2*stride, false)
	found := false
	for i, l := range evicted {
		if l == 0x3000 && specs[i] {
			found = true
		}
	}
	if !found {
		t.Fatalf("speculative-read eviction not reported: %v %v", evicted, specs)
	}
}

func TestFlashClearSpecRead(t *testing.T) {
	h := New(1, Barcelona())
	for i := 0; i < 10; i++ {
		a := mem.Addr(0x4000 + i*mem.LineSize)
		h.Access(0, a, false)
		h.SetSpecRead(0, a, true)
	}
	h.FlashClearSpecRead(0)
	var spec int
	h.SetEvictHook(func(_ int, _ mem.Addr, s bool) {
		if s {
			spec++
		}
	})
	// Thrash everything out; no eviction may still carry the mark.
	for i := 0; i < 4096; i++ {
		h.Access(0, mem.Addr(0x100000+i*mem.LineSize), false)
	}
	if spec != 0 {
		t.Fatalf("%d lines still marked after flash clear", spec)
	}
}

func TestTLBMissCostsAndStoresSkipTLB(t *testing.T) {
	cfg := Barcelona()
	h := New(1, cfg)
	// First load on a fresh page: full walk.
	r1 := h.Access(0, 0x100000, false)
	if !r1.TLBMiss {
		t.Fatal("first load did not walk")
	}
	// Second load, same page: TLB hit.
	r2 := h.Access(0, 0x100040, false)
	if r2.TLBMiss {
		t.Fatal("second load walked again")
	}
	// Store to a brand-new page: must not consult the TLB (PTLsim quirk).
	r3 := h.Access(0, 0x900000, true)
	if r3.TLBMiss {
		t.Fatal("store consulted the TLB")
	}
	st := h.Stats(0)
	if st.TLBWalks != 1 {
		t.Fatalf("walks = %d, want 1", st.TLBWalks)
	}
}

func TestFlushTLB(t *testing.T) {
	h := New(1, Barcelona())
	h.Access(0, 0x200000, false)
	h.FlushTLB(0)
	r := h.Access(0, 0x200040, false)
	if !r.TLBMiss {
		t.Fatal("flush did not drop the translation")
	}
}

func TestDropRemovesResidency(t *testing.T) {
	h := New(1, Barcelona())
	h.Access(0, 0x5000, true)
	h.Drop(0, 0x5000)
	if h.L1Resident(0, 0x5000) {
		t.Fatal("Drop left the line resident")
	}
	// Re-access must miss past L2 (the private copy is gone).
	r := h.Access(0, 0x5000, false)
	if r.Level == L1 || r.Level == L2 {
		t.Fatalf("dropped line served from %v", r.Level)
	}
}

func TestStatsCount(t *testing.T) {
	h := New(1, Barcelona())
	for i := 0; i < 5; i++ {
		h.Access(0, 0x6000, false)
	}
	h.Access(0, 0x6000, true)
	st := h.Stats(0)
	if st.Loads != 5 || st.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", st.Loads, st.Stores)
	}
	if st.L1Hits < 4 {
		t.Fatalf("l1 hits = %d", st.L1Hits)
	}
}

// TestUpgradeInvalidatesOwnerOnce: a write upgrade whose other holder is
// also the line's dirty owner invalidates that core once. The state arises
// when an L1 victim's speculative-read mark is lost while the line stays in
// L2: the core leaves the holders but keeps its L2 copy, so a later write
// by another core does not invalidate it, and its own write then hits L2.
func TestUpgradeInvalidatesOwnerOnce(t *testing.T) {
	h := New(2, Barcelona())
	const x = mem.Addr(0x5000)
	h.Access(1, x, false)
	h.cores[1].l1.remove(x)
	h.state(x).Holders &^= 1 << 1
	h.Access(0, x, true) // core 0 owns x dirty; core 1's L2 copy survives
	if r := h.Access(1, x, true); r.Level != L2 {
		t.Fatalf("write served from %v, want L2", r.Level)
	}
	if n := h.Stats(0).Evictions; n != 1 {
		t.Fatalf("core 0 counted %d evictions, want 1", n)
	}
	if ls := h.state(x); ls.Owner() != 1 || ls.Holders != 1<<1 {
		t.Fatalf("after the upgrade: owner %d, holders %b; want owner 1, holders 10", ls.Owner(), ls.Holders)
	}
}
