package asfstack_test

// Allocation guards: an atomic block allocates nothing on any runtime, a
// workload's allocations do not grow with its operation count, and building
// a machine allocates in proportion to its footprint, not to the metadata
// its runtime prefaults. CI runs them in the benchmark-smoke job's hot-path
// allocation guard step.

import (
	"runtime"
	"slices"
	"testing"

	"asfstack"
	"asfstack/internal/asf"
	"asfstack/internal/intset"
	"asfstack/internal/mem"
	"asfstack/internal/server"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
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

// TestSteadyStateAtomicAllocsNothing: once a core's body is built and the
// runtime is warm, running it as an atomic block allocates nothing, on
// every runtime and every ASF variant, the ablation ones included. The
// count is read inside the core's body, so it covers the runtime's begin,
// barriers and commit and nothing of the machine's start and stop.
func TestSteadyStateAtomicAllocsNothing(t *testing.T) {
	runtimes := slices.Clone(asfstack.RuntimeNames)
	for _, v := range asf.AllVariants {
		if !slices.Contains(runtimes, v.Name) {
			runtimes = append(runtimes, v.Name)
		}
	}
	for _, rt := range runtimes {
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
				allocs, _ = allocated(func() {
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
	a, _ := allocated(func() { run(small) })
	b, _ := allocated(func() { run(large) })
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

// TestBuildBytesFollowFootprint: a runtime's prefaulted metadata (the STM
// lock array, the per-core logs of STM, HyTM and Cohorts) costs the host
// nothing until it is touched, an ASF unit's LLB holds line addresses
// only, and the cache arrays get their sets on first fill. So on the
// 64-core 4x16 machine Sequential's Build, which prefaults nothing,
// allocates under 2 MiB, and every other runtime's at most 512 KiB more.
func TestBuildBytesFollowFootprint(t *testing.T) {
	build := func(rt string) uint64 {
		_, bytes := allocated(func() {
			if _, err := asfstack.Build(asfstack.Options{Runtime: rt, Topology: "4x16"}); err != nil {
				t.Fatal(err)
			}
		})
		return bytes
	}
	const slack = 512 << 10
	base := build("Sequential")
	if base >= 2<<20 {
		t.Errorf("Sequential: Build allocated %.2f MiB, want < 2 MiB", float64(base)/(1<<20))
	}
	for _, rt := range asfstack.RuntimeNames {
		b := build(rt)
		t.Logf("%-14s %6.2f MiB (Sequential %.2f)", rt, float64(b)/(1<<20), float64(base)/(1<<20))
		if b > base+slack {
			t.Errorf("%s: Build allocated %.2f MiB, more than Sequential's %.2f MiB + 512 KiB",
				rt, float64(b)/(1<<20), float64(base)/(1<<20))
		}
	}
}
