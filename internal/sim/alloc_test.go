package sim

import (
	"runtime"
	"testing"

	"asfstack/internal/mem"
)

// TestSteadyStateLoadAllocsNothing is the hot-path allocation guard: once
// caches, TLB, directory and demand paging are warm, a CPU.Load served from
// L1 must not allocate at all. A single free-running core performs no
// channel operations (unbounded lease), so the measured window contains
// nothing but the access path itself.
func TestSteadyStateLoadAllocsNothing(t *testing.T) {
	m := New(Barcelona(1))
	m.Mem.Prefault(0, 1<<20)
	const lines = 512
	var allocs uint64
	m.Run(func(c *CPU) {
		// Warm-up: faults taken, lines resident, directory entries and any
		// table growth done.
		for j := 0; j < 2*lines; j++ {
			c.Load(mem.Addr(j % lines * mem.LineSize))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < 10_000; j++ {
			c.Load(mem.Addr(j % lines * mem.LineSize))
		}
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
	})
	if allocs != 0 {
		t.Fatalf("steady-state L1-hit loads performed %d heap allocations, want 0", allocs)
	}
}
