// Command asfsim runs a single workload configuration on the simulated ASF
// stack and prints its measurements — the one-off counterpart to
// cmd/asfbench's full sweeps.
//
//	asfsim -workload intset -structure rbtree -runtime LLB-256 -threads 8
//	asfsim -workload stamp -app vacation-low -runtime STM -threads 4
//	asfsim -workload server -runtime LLB-256 -topology 2x8 -load 1.4
//	asfsim -workload intset -topology 4x16
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"asfstack"
	"asfstack/internal/intset"
	"asfstack/internal/metrics"
	"asfstack/internal/server"
	"asfstack/internal/sim"
	"asfstack/internal/stamp"
)

func main() {
	workload := flag.String("workload", "intset", "intset, stamp, or server")
	runtimeName := flag.String("runtime", "LLB-256", "TM runtime: "+strings.Join(asfstack.RuntimeNames, ", "))
	threads := flag.Int("threads", 4, "simulated cores (ignored when -topology is set)")
	seed := flag.Int64("seed", 42, "random seed")
	topology := flag.String("topology", "",
		"socket layout, e.g. 2x8 (sockets x cores-per-socket); empty = single socket; overrides -threads")

	structure := flag.String("structure", "rbtree", "intset: linkedlist, skiplist, rbtree, hashset")
	keyRange := flag.Uint64("range", 1024, "intset: key range")
	update := flag.Int("update", 20, "intset: update percentage")
	ops := flag.Int("ops", 1500, "intset: operations per thread")
	early := flag.Bool("early-release", false, "intset: hand-over-hand list traversal")

	app := flag.String("app", "genome", "stamp: application name")
	scale := flag.Float64("scale", 1.0, "stamp/server: input scale")

	load := flag.Float64("load", 0.7, "server: offered per-core load (fraction of nominal service rate; >= 1 is overload)")
	requests := flag.Int("requests", 0, "server: requests per core (0 = default from scale)")
	zipf := flag.Float64("zipf", 1.2, "server: item-key Zipf skew exponent (> 1)")
	flag.Parse()

	// One machine spec for every workload; with an explicit topology the
	// core count comes from it.
	spec := asfstack.Options{Runtime: *runtimeName, Cores: *threads, Seed: *seed, SeedSet: true, Topology: *topology}
	if *topology != "" {
		spec.Cores = 0
	}

	switch *workload {
	case "intset":
		r, err := intset.Run(intset.Config{
			Options: spec, Structure: *structure, Range: *keyRange, UpdatePct: *update,
			OpsPerThread: *ops, EarlyRelease: *early,
		})
		check(err)
		fmt.Printf("workload     intset %s (range=%d, %d%% upd, %d threads)\n",
			*structure, *keyRange, *update, r.Config.Cores)
		fmt.Printf("runtime      %s\n", *runtimeName)
		printTopology(*topology, r.Metrics)
		fmt.Printf("throughput   %.2f tx/µs\n", r.Throughput())
		fmt.Printf("duration     %.3f ms simulated\n", r.Millis())
		printRun(r.RunResult)
	case "stamp":
		r, err := stamp.Run(stamp.Config{Options: spec, App: *app, Scale: *scale})
		check(err)
		fmt.Printf("workload     stamp %s (scale %.2f, %d threads)\n", *app, *scale, r.Config.Cores)
		fmt.Printf("runtime      %s\n", *runtimeName)
		printTopology(*topology, r.Metrics)
		fmt.Printf("duration     %.3f ms simulated\n", r.Millis())
		printRun(r.RunResult)
	case "server":
		r, err := server.Run(server.Config{
			Options: spec, RequestsPerCore: *requests, Load: *load, ZipfS: *zipf, Scale: *scale,
		})
		check(err)
		fmt.Printf("workload     server (open-loop, load=%.2f, zipf=%.2f, %d requests/core, %d threads)\n",
			r.Config.Load, r.Config.ZipfS, r.Config.RequestsPerCore, r.Config.Cores)
		fmt.Printf("runtime      %s\n", *runtimeName)
		printTopology(*topology, r.Metrics)
		fmt.Printf("throughput   %.2f tx/µs\n", r.Throughput())
		fmt.Printf("duration     %.3f ms simulated\n", r.Millis())
		hs, _ := r.Metrics.Histogram("server/sojourn_cyc")
		fmt.Printf("sojourn      p50 %.0f  p95 %.0f  p99 %.0f  p999 %.0f  max %d cycles\n",
			r.P50, r.P95, r.P99, r.P999, hs.Max)
		printRun(r.RunResult)
	default:
		fmt.Fprintf(os.Stderr, "asfsim: unknown workload %q\n", *workload)
		os.Exit(2)
	}
}

// check exits 1 on a bad configuration: unknown runtime, structure or app,
// malformed topology, core count out of range.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "asfsim:", err)
		os.Exit(1)
	}
}

// printRun prints the measured phase's commit/abort counts and its cycle
// breakdown.
func printRun(r asfstack.RunResult) {
	fmt.Printf("commits      %d (%d serial-irrevocable)\n", r.Stats.Commits, r.Stats.Serial)
	fmt.Printf("aborts       %d (%d software)\n", r.Stats.TotalAborts(), r.Stats.STMAborts)
	total := r.Breakdown.Total()
	if total == 0 {
		return
	}
	fmt.Printf("cycles       %d total\n", total)
	for i := 0; i < sim.NumCategories; i++ {
		c := sim.Category(i)
		fmt.Printf("  %-16s %12d  (%5.1f%%)\n", c, r.Breakdown[c], float64(r.Breakdown[c])/float64(total)*100)
	}
}

// printTopology reports the socket layout and its directory traffic when a
// multi-socket topology was requested.
func printTopology(topology string, m *metrics.Snapshot) {
	if topology == "" || m == nil {
		return
	}
	hops := uint64(0)
	if g, ok := m.Gauge("cache/xsock_hops"); ok {
		hops = g.Total
	}
	fmt.Printf("topology     %s (%d cross-socket hops)\n", topology, hops)
}
