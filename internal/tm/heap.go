package tm

import (
	"fmt"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// Heap is the memory allocator shared by all runtimes: thread-private
// arenas in simulated memory (the paper selects the most scalable of three
// allocators; thread-private pools are what makes them scale), fronted by a
// per-thread fast pool that the *transactional* allocator bump-allocates
// from without leaving the speculative region.
//
// When the pool is empty the real allocator must run — a system call in the
// worst case — which is not abort-safe inside an ASF region. ASF-TM
// therefore aborts with CodeMallocRefill, refills outside the region, and
// retries: the paper's "Abort (malloc)" events. STM and serial transactions
// refill inline (Alloc).
//
// Allocations made by aborted transactions are leaked (the pool pointer is
// not rolled back); this is the same robustness-by-leak design the paper's
// custom in-transaction allocator uses, and the arenas are sized for it.
type Heap struct {
	arenas []*mem.Arena
	pool   []uint64 // per core: bytes remaining before a refill is needed
	frees  uint64   // accounted Free calls (validation/accounting only)
}

const (
	// ChunkSize is the least a refill adds to the fast pool, in bytes.
	ChunkSize = 64 << 10
	// refillCost is the extra kernel cost of a refill (sbrk/mmap path).
	refillCost = 800
	// allocInstr is the instruction cost of a fast-path allocation.
	allocInstr = 25
)

// NewHeap carves one arena per core out of layout and prefaults nothing:
// freshly allocated pages fault on first touch, exactly the behaviour that
// produces the hash-set page-fault aborts in Table 1.
func NewHeap(m *mem.Memory, layout *mem.Layout, cores int, bytesPerCore uint64) *Heap {
	h := &Heap{}
	for i := 0; i < cores; i++ {
		base, end := layout.Region(bytesPerCore)
		h.arenas = append(h.arenas, mem.NewArena(m, base, end))
	}
	h.pool = make([]uint64, cores)
	return h
}

// AllocFast tries a pool allocation on core c, charging the fast-path cost.
// ok=false means the pool is exhausted: the caller must Refill (outside any
// hardware region) and try again.
func (h *Heap) AllocFast(c *sim.CPU, size, align uint64) (a mem.Addr, ok bool) {
	c.Exec(allocInstr)
	if size > h.pool[c.ID()] {
		return 0, false
	}
	h.pool[c.ID()] -= size
	return h.arenas[c.ID()].Alloc(size, align), true
}

// Refill grows core c's fast pool by at least need bytes, entering the
// kernel. Must not be called inside an ASF speculative region (the system
// call would abort it); runtimes abort first and refill from the begin path.
func (h *Heap) Refill(c *sim.CPU, need uint64) {
	chunk := uint64(ChunkSize)
	for chunk < need {
		chunk *= 2
	}
	c.Syscall(refillCost)
	h.pool[c.ID()] += chunk
}

// Alloc allocates on core c where no hardware region is at risk — a
// software or serial transaction, setup code — refilling the pool inline
// whenever AllocFast finds it empty. Hardware paths use AllocFast and
// abort with CodeMallocRefill instead.
func (h *Heap) Alloc(c *sim.CPU, size, align uint64) mem.Addr {
	for {
		if a, ok := h.AllocFast(c, size, align); ok {
			return a
		}
		h.Refill(c, size)
	}
}

// Free accounts a transactional free of the block at a. The arena model
// reclaims nothing — allocations from aborted transactions leak by design —
// but the address is validated: freeing memory no arena ever handed out (a
// foreign or never-allocated pointer, e.g. a double free of a recycled
// address in a future reclaiming allocator) is a workload bug and panics.
// Only the bookkeeping cost is charged to the simulated core.
func (h *Heap) Free(c *sim.CPU, a mem.Addr) {
	c.Exec(12)
	if !h.owns(a) {
		panic(fmt.Sprintf("tm: Free(%#x): address outside every arena's allocated span", uint64(a)))
	}
	h.frees++
}

// owns reports whether a lies inside the allocated span of any core's
// arena.
func (h *Heap) owns(a mem.Addr) bool {
	for _, ar := range h.arenas {
		if ar.Owns(a) {
			return true
		}
	}
	return false
}

// Frees returns how many frees have been accounted. A retried transaction
// may free the same address once per attempt; with arenas that never
// recycle addresses this is harmless, so the count can exceed the number
// of distinct freed blocks.
func (h *Heap) Frees() uint64 { return h.frees }

// SetupAlloc allocates without charging simulated cycles — for building
// initial data sets before the measured phase. The touched pages are
// prefaulted so the measured phase does not pay their cold-start faults
// (benchmark initialisation runs natively, outside the simulator, in the
// paper's methodology).
func (h *Heap) SetupAlloc(core int, size, align uint64) mem.Addr {
	a := h.arenas[core].Alloc(size, align)
	h.arenas[core].Prefault(a, size)
	return a
}

// Arena exposes core i's arena (tests and setup code).
func (h *Heap) Arena(i int) *mem.Arena { return h.arenas[i] }
