// Package seq is the uninstrumented sequential baseline: tm.Runtime with
// no synchronisation and no barriers, matching the paper's "Sequential"
// bars ("single-threaded executions ... with no synchronization mechanism
// in use and no instrumentation added"). It is only correct on one thread.
package seq

import (
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Runtime implements tm.Runtime by running bodies directly.
type Runtime struct {
	heap  *tm.Heap
	stats []tm.Stats
	txs   []seqTx // one handle per core, built once so Atomic allocates nothing
	hook  tm.CommitHook
}

// SetCommitHook implements tm.HookableRuntime. With a single thread the
// global order is the program order, but the litmus suite installs the hook
// uniformly across runtimes.
func (r *Runtime) SetCommitHook(h tm.CommitHook) { r.hook = h }

// New builds the sequential runtime.
func New(heap *tm.Heap, cores int) *Runtime {
	r := &Runtime{heap: heap, stats: make([]tm.Stats, cores), txs: make([]seqTx, cores)}
	for i := range r.txs {
		r.txs[i].r = r
	}
	return r
}

// Name implements tm.Runtime.
func (r *Runtime) Name() string { return "Sequential" }

// Stats implements tm.Runtime.
func (r *Runtime) Stats(core int) tm.Stats { return r.stats[core] }

// ResetStats implements tm.Runtime.
func (r *Runtime) ResetStats() {
	for i := range r.stats {
		r.stats[i] = tm.Stats{}
	}
}

// Atomic implements tm.Runtime: the body runs inline, uninstrumented.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	t := &r.txs[c.ID()]
	t.c = c
	body(t)
	r.stats[c.ID()].Commits++
	if r.hook != nil {
		c.SpecOp(0, func() { r.hook(c.ID(), false) })
	}
}

type seqTx struct {
	r *Runtime
	c *sim.CPU
}

func (t *seqTx) Load(a mem.Addr) mem.Word     { return t.c.Load(a) }
func (t *seqTx) Store(a mem.Addr, v mem.Word) { t.c.Store(a, v) }
func (t *seqTx) CPU() *sim.CPU                { return t.c }
func (t *seqTx) Irrevocable() bool            { return true }
func (t *seqTx) Free(a mem.Addr)              { t.r.heap.Free(t.c, a) }

func (t *seqTx) Alloc(size uint64) mem.Addr {
	for {
		a, ok := t.r.heap.AllocFast(t.c, size, mem.WordSize)
		if ok {
			return a
		}
		t.r.heap.Refill(t.c, size)
	}
}

func (t *seqTx) AllocLines(n int) mem.Addr {
	for {
		a, ok := t.r.heap.AllocFast(t.c, uint64(n)*mem.LineSize, mem.LineSize)
		if ok {
			return a
		}
		t.r.heap.Refill(t.c, uint64(n)*mem.LineSize)
	}
}
