package seq

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

func TestSequentialRuntime(t *testing.T) {
	m := sim.New(sim.Barcelona(1))
	m.Mem.Prefault(0, 1<<20)
	layout := mem.NewLayout(mem.PageSize)
	heap := tm.NewHeap(m.Mem, layout, 1, 8<<20)
	r := New(m, heap)
	if r.Name() != "Sequential" {
		t.Fatalf("name = %q", r.Name())
	}
	m.Run(func(c *sim.CPU) {
		for i := 0; i < 10; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				if !tx.Irrevocable() {
					t.Error("sequential tx not irrevocable")
				}
				tx.Store(0x100, tx.Load(0x100)+1)
				a := tx.Alloc(32)
				tx.Store(a, 1)
				tx.Free(a)
			})
		}
	})
	if got := m.Mem.Load(0x100); got != 10 {
		t.Fatalf("counter = %d", got)
	}
	if st := r.Stats(0); st.Commits != 10 || st.TotalAborts() != 0 {
		t.Fatalf("stats = %+v", st)
	}
	r.ResetStats()
	if st := r.Stats(0); st.Commits != 0 {
		t.Fatal("ResetStats did not clear")
	}
}
