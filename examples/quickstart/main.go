// Quickstart: the full ASF transactional memory stack in one page.
//
// Four threads increment a shared counter inside atomic blocks, running on
// the simulated eight-core Barcelona machine with the LLB-256 ASF
// implementation. Change -runtime to compare the paper's configurations.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -runtime STM -threads 8
package main

import (
	"flag"
	"fmt"

	"asfstack"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

func main() {
	runtimeName := flag.String("runtime", "LLB-256", "one of: LLB-8, LLB-256, LLB-8 w/ L1, LLB-256 w/ L1, STM, Sequential")
	threads := flag.Int("threads", 4, "simulated cores")
	incs := flag.Int("n", 2000, "increments per thread")
	flag.Parse()

	s := asfstack.New(asfstack.Options{Cores: *threads, Runtime: *runtimeName})
	counter := s.AllocShared(8)

	start := s.M.SyncClocks()
	end := s.Parallel(*threads, func(c *sim.CPU) {
		// Build the atomic body once per core: a body passed to Atomic
		// escapes to the heap, so one written inside the loop would
		// allocate on every increment.
		inc := func(tx tm.Tx) { tx.Store(counter, tx.Load(counter)+1) }
		for i := 0; i < *incs; i++ {
			s.Atomic(c, inc)
		}
	})

	st := s.TotalStats()
	fmt.Printf("runtime          %s\n", s.RT.Name())
	fmt.Printf("counter          %d (want %d)\n", s.M.Mem.Load(counter), *threads**incs)
	fmt.Printf("simulated time   %.3f ms at 2.2 GHz\n", float64(end-start)/2_200_000)
	fmt.Printf("commits          %d (%d serial-irrevocable)\n", st.Commits, st.Serial)
	fmt.Printf("aborts           %d hardware, %d software\n",
		st.TotalAborts()-st.STMAborts, st.STMAborts)
}
