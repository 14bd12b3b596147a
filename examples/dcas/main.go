// DCAS: the paper's Figure 1 — a double compare-and-swap built directly on
// the raw ASF primitives (SPECULATE / LOCK MOV / COMMIT), below the TM
// runtime. Lock-free multiword atomics are what ASF was originally aimed
// at; the architectural minimum capacity of 4 lines guarantees this
// two-line region eventual forward progress without a software fallback.
//
//	go run ./examples/dcas
package main

import (
	"fmt"
	"strings"

	"asfstack/internal/asf"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
)

// dcas atomically performs:
//
//	if *m1 == e1 && *m2 == e2 { *m1, *m2 = n1, n2; return true }
//
// retrying on transient aborts (interrupts), exactly like Fig. 1's retry
// loop around SPECULATE.
func dcas(c *sim.CPU, u *asf.Unit, m1, m2 mem.Addr, e1, e2, n1, n2 mem.Word) bool {
	for attempt := 0; ; attempt++ {
		ok := false
		reason, _ := u.Region(func() {
			v1 := u.Load(m1) // LOCK MOV
			v2 := u.Load(m2)
			if v1 != e1 || v2 != e2 {
				ok = false
				return
			}
			u.Store(m1, n1)
			u.Store(m2, n2)
			ok = true
		})
		switch reason {
		case sim.AbortNone:
			return ok
		case sim.AbortContention, sim.AbortInterrupt, sim.AbortPageFault:
			// Transient. ASF ensures eventual progress only absent
			// contention, so software must control it (§2.2):
			// randomised exponential back-off.
			limit := int64(32) << uint(min(attempt, 8))
			c.Cycles(uint64(c.Rand().Int63n(limit)) + 1)
		default:
			panic("dcas: unexpected abort: " + reason.String())
		}
	}
}

func main() {
	const threads, moves = 4, 5000
	m := sim.New(sim.Barcelona(threads))
	m.Mem.Prefault(0, 1<<20)
	sys := asf.Install(m, asf.LLB8)
	reg := metrics.New(threads)
	sys.SetMetrics(reg)

	// Two counters whose SUM must stay invariant: each thread atomically
	// moves one unit from a to b or back, using DCAS.
	a, b := mem.Addr(0x1000), mem.Addr(0x2000)
	m.Mem.Store(a, 1_000_000)

	dur := m.Run(func(c *sim.CPU) { worker(sys, c, a, b, moves) },
		func(c *sim.CPU) { worker(sys, c, a, b, moves) },
		func(c *sim.CPU) { worker(sys, c, a, b, moves) },
		func(c *sim.CPU) { worker(sys, c, a, b, moves) })

	va, vb := m.Mem.Load(a), m.Mem.Load(b)
	fmt.Printf("a=%d b=%d sum=%d (invariant %d)\n", va, vb, va+vb, 1_000_000)
	snap := reg.Snapshot()
	commits, _ := snap.Counter("asf/commits")
	var aborts uint64
	for _, c := range snap.Sim.Counters {
		if strings.HasPrefix(c.Name, "asf/aborts/") {
			aborts += c.Total
		}
	}
	fmt.Printf("%d DCAS commits, %d aborts, %.3f simulated ms\n",
		commits.Total, aborts, float64(dur)/2_200_000)
	if va+vb != 1_000_000 {
		panic("invariant broken")
	}
}

func worker(sys *asf.System, c *sim.CPU, a, b mem.Addr, moves int) {
	u := sys.Unit(c.ID())
	for i := 0; i < moves; i++ {
		for {
			va, vb := c.Load(a), c.Load(b)
			if va == 0 {
				break
			}
			if dcas(c, u, a, b, va, vb, va-1, vb+1) {
				break
			}
		}
	}
}
