package asfstack_test

// Allocation guards for the measured phase: an atomic block allocates
// nothing on any runtime, and a workload's allocations do not grow with its
// operation count. CI runs them in the benchmark-smoke job's hot-path
// allocation guard step.

import (
	"runtime"
	"testing"

	"asfstack"
	"asfstack/internal/intset"
	"asfstack/internal/mem"
	"asfstack/internal/server"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// mallocs returns how many heap objects the process allocated while run ran.
func mallocs(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateAtomicAllocsNothing: once a core's body is built and the
// runtime is warm, running it as an atomic block allocates nothing, on
// every runtime. The count is read inside the core's body, so it covers
// the runtime's begin, barriers and commit and nothing of the machine's
// start and stop.
func TestSteadyStateAtomicAllocsNothing(t *testing.T) {
	for _, rt := range asfstack.RuntimeNames {
		t.Run(rt, func(t *testing.T) {
			s := asfstack.New(asfstack.Options{Cores: 1, Runtime: rt})
			a := s.AllocShared(4 * mem.LineSize)
			var allocs uint64
			s.Parallel(1, func(c *sim.CPU) {
				body := func(tx tm.Tx) {
					v := tx.Load(a) + tx.Load(a+mem.LineSize) +
						tx.Load(a+2*mem.LineSize) + tx.Load(a+3*mem.LineSize)
					tx.Store(a, v+1)
				}
				for i := 0; i < 2_000; i++ {
					s.Atomic(c, body)
				}
				allocs = mallocs(func() {
					for i := 0; i < 10_000; i++ {
						s.Atomic(c, body)
					}
				})
			})
			t.Logf("%d heap allocations in 10,000 atomic blocks", allocs)
			if allocs >= 10 {
				t.Fatalf("10,000 steady-state atomic blocks performed %d heap allocations, want < 10", allocs)
			}
		})
	}
}

// flatInOps fails t when run(large) allocates 64 or more objects beyond
// run(small). One call comes first to warm package and runtime state.
func flatInOps(t *testing.T, small, large int, run func(ops int)) {
	t.Helper()
	run(small)
	a := mallocs(func() { run(small) })
	b := mallocs(func() { run(large) })
	t.Logf("%d ops per core: %d objects; %d: %d", small, a, large, b)
	if d := int64(b) - int64(a); d >= 64 {
		t.Errorf("%+d objects from %d to %d operations per core, want < 64", d, small, large)
	}
}

// TestIntsetAllocsFlatInOps: the IntegerSet measured loop allocates per
// core, not per operation.
func TestIntsetAllocsFlatInOps(t *testing.T) {
	for _, rt := range []string{"LLB-256", "STM", "HyTM-256", "Cohorts", "Adaptive-256"} {
		t.Run(rt, func(t *testing.T) {
			flatInOps(t, 200, 1_200, func(ops int) {
				_, err := intset.Run(intset.Config{
					Options:   asfstack.Options{Runtime: rt, Cores: 4},
					Structure: "linkedlist", Range: 28, UpdatePct: 20, OpsPerThread: ops})
				if err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestServerAllocsFlatInOps: the server sessions allocate per core, not
// per request.
func TestServerAllocsFlatInOps(t *testing.T) {
	for _, rt := range []string{"LLB-256", "STM", "HyTM-256", "Cohorts-turbo", "Adaptive-256"} {
		t.Run(rt, func(t *testing.T) {
			flatInOps(t, 20, 120, func(reqs int) {
				_, err := server.Run(server.Config{
					Options: asfstack.Options{Runtime: rt, Topology: "2x2"},
					Scale:   0.1, RequestsPerCore: reqs})
				if err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
