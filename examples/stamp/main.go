// Stamp: one STAMP application across the whole runtime matrix — a
// miniature of the paper's Fig. 4. Pick the application and thread count;
// the example prints execution time and abort statistics for the four ASF
// variants, the STM, and the sequential baseline.
//
//	go run ./examples/stamp
//	go run ./examples/stamp -app labyrinth -threads 8
package main

import (
	"flag"
	"fmt"
	"os"

	"asfstack"
	"asfstack/internal/stamp"
)

func main() {
	app := flag.String("app", "vacation-low", "one of: genome, intruder, kmeans-low, kmeans-high, labyrinth, ssca2, vacation-low, vacation-high")
	threads := flag.Int("threads", 4, "simulated cores")
	scale := flag.Float64("scale", 0.5, "input scale")
	flag.Parse()

	fmt.Printf("STAMP %s, %d threads, scale %.2f (simulated 2.2 GHz)\n\n", *app, *threads, *scale)
	fmt.Printf("%-14s %10s %10s %8s %8s\n", "runtime", "time (ms)", "commits", "serial", "aborts")

	for _, rt := range []string{"LLB-8", "LLB-256", "LLB-8 w/ L1", "LLB-256 w/ L1", "STM"} {
		r, err := stamp.Run(stamp.Config{Options: asfstack.Options{Runtime: rt, Cores: *threads}, App: *app, Scale: *scale})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stamp:", err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %10.3f %10d %8d %8d\n",
			rt, r.Millis(), r.Stats.Commits, r.Stats.Serial, r.Stats.TotalAborts())
	}
	seq, err := stamp.Run(stamp.Config{Options: asfstack.Options{Runtime: "Sequential", Cores: 1}, App: *app, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stamp:", err)
		os.Exit(1)
	}
	fmt.Printf("%-14s %10.3f %10d %8s %8s  (1 thread, uninstrumented)\n",
		"Sequential", seq.Millis(), seq.Stats.Commits, "-", "-")
}
