// Package seq is the uninstrumented sequential baseline: tm.Runtime with
// no synchronisation and no barriers, matching the paper's "Sequential"
// bars ("single-threaded executions ... with no synchronization mechanism
// in use and no instrumentation added"). It is only correct on one thread.
package seq

import (
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Runtime implements tm.Runtime by running bodies directly.
type Runtime struct {
	tm.StatsTable
	txs  []tm.DirectTx // one handle per core, built once so Atomic allocates nothing
	hook tm.CommitHook
}

// SetCommitHook implements tm.HookableRuntime. With a single thread the
// global order is the program order, but the litmus suite installs the hook
// uniformly across runtimes.
func (r *Runtime) SetCommitHook(h tm.CommitHook) { r.hook = h }

// New builds the sequential runtime for machine m.
func New(m *sim.Machine, heap *tm.Heap) *Runtime {
	cores := m.Config().Cores
	r := &Runtime{StatsTable: make(tm.StatsTable, cores), txs: make([]tm.DirectTx, cores)}
	for i := range r.txs {
		r.txs[i] = *tm.Direct(m.CPU(i), heap)
	}
	return r
}

// Name implements tm.Runtime.
func (r *Runtime) Name() string { return "Sequential" }

// Atomic implements tm.Runtime: the body runs inline, uninstrumented.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	body(&r.txs[c.ID()])
	r.StatsTable[c.ID()].Commits++
	if r.hook != nil {
		c.SpecOp(0, func() { r.hook(c.ID(), false) })
	}
}
