// Intset: the linked-list integer set with early release — the Fig. 8
// scenario. An LLB-8 machine walks lists far larger than eight lines by
// keeping only a hand-over-hand window in the read set, and the example
// prints throughput with and without the optimisation next to the STM.
//
//	go run ./examples/intset
//	go run ./examples/intset -size 256 -threads 8
package main

import (
	"flag"
	"fmt"
	"os"

	"asfstack"
	"asfstack/internal/intset"
)

func main() {
	size := flag.Int("size", 126, "initial list size (key range is 2x)")
	threads := flag.Int("threads", 8, "simulated cores")
	ops := flag.Int("ops", 1500, "operations per thread (20% updates)")
	flag.Parse()

	type variant struct {
		label        string
		runtime      string
		earlyRelease bool
	}
	for _, v := range []variant{
		{"LLB-8, no early release", "LLB-8", false},
		{"LLB-8, early release", "LLB-8", true},
		{"LLB-256, no early release", "LLB-256", false},
		{"STM", "STM", false},
	} {
		r, err := intset.Run(intset.Config{
			Options:   asfstack.Options{Runtime: v.runtime, Cores: *threads},
			Structure: "linkedlist", Range: uint64(2 * *size), UpdatePct: 20,
			OpsPerThread: *ops, EarlyRelease: v.earlyRelease,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "intset:", err)
			os.Exit(1)
		}
		fmt.Printf("%-26s %6.2f tx/µs   serial %5.1f%%   aborts %d\n",
			v.label, r.Throughput(),
			float64(r.Stats.Serial)/float64(r.Stats.Commits)*100,
			r.Stats.TotalAborts())
	}
}
