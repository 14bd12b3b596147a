package tm

import (
	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// Direct returns a Tx that performs plain, unsynchronised accesses on c —
// no speculation, no locks, no barriers. It is used for setup phases
// (populating data structures before the measured region begins, the
// paper's "benchmark initialization ... at native speed") and by
// single-threaded baseline code.
//
// It is not a transaction: there is no atomicity and no rollback. Using it
// concurrently with real transactions on the same data is a workload bug.
func Direct(c *sim.CPU, heap *Heap) *DirectTx {
	return &DirectTx{c: c, heap: heap}
}

// DirectTx is the Tx that Direct returns. The sequential runtime runs every
// atomic block on one per core.
type DirectTx struct {
	c    *sim.CPU
	heap *Heap
}

func (t *DirectTx) Load(a mem.Addr) mem.Word     { return t.c.Load(a) }
func (t *DirectTx) Store(a mem.Addr, v mem.Word) { t.c.Store(a, v) }
func (t *DirectTx) CPU() *sim.CPU                { return t.c }
func (t *DirectTx) Irrevocable() bool            { return true }
func (t *DirectTx) Free(a mem.Addr)              { t.heap.Free(t.c, a) }
func (t *DirectTx) Alloc(size uint64) mem.Addr   { return t.heap.Alloc(t.c, size, mem.WordSize) }

func (t *DirectTx) AllocLines(n int) mem.Addr {
	return t.heap.Alloc(t.c, uint64(n)*mem.LineSize, mem.LineSize)
}
