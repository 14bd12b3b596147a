// Command asfbench regenerates the paper's evaluation artifacts — Figures
// 3–9 and Table 1 — on the simulated ASF stack and prints them as text
// tables or a machine-readable JSON report.
//
// Usage:
//
//	asfbench -list                               # experiment names + descriptions
//	asfbench -experiment fig4                    # one figure
//	asfbench -experiment all                     # everything (slow)
//	asfbench -experiment fig5 -scale 0.25 -parallel 8 -v
//	asfbench -experiment fig5 -format json -o out.json
//	asfbench -experiment fig5 -trace trace.json  # Chrome trace_event export
//	asfbench -experiment txprof -profile -format json -o prof.json  # flight-recorder profiles (cmd/tmprof input)
//	asfbench -validate out.json                  # check a report's schema
//
// Scale shrinks the workload sizes proportionally; 1.0 is the reported
// configuration. Each experiment decomposes into independent cells (one
// simulated machine each) that -parallel host goroutines run concurrently;
// tables — and the JSON report's sim sections — are byte-identical for
// every -parallel value. -v streams per-cell progress to stderr.
//
// -format json emits a versioned BenchReport document (schema
// "asfstack/bench-report", see internal/harness and EXPERIMENTS.md) instead
// of text tables; -o writes the output (either format) to a file instead of
// stdout. -trace records every cell's simulated execution and writes a
// Chrome trace_event JSON file loadable in chrome://tracing or Perfetto.
// -validate reads a previously written JSON report, checks its schema and
// version, and exits without running anything.
//
// A failing cell does not kill the run: its table entries read "ERR", the
// failure is reported per cell on stderr, and the exit status is 1. Exit
// status 2 means the invocation itself was bad (unknown experiment, bad
// flags, unwritable output, invalid report).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"asfstack/internal/harness"
	"asfstack/internal/trace"
)

func main() {
	exp := flag.String("experiment", "all",
		"comma-separated experiments to run: "+strings.Join(harness.Names, ", ")+", or all")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = reported configuration)")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"experiment cells run concurrently (host goroutines)")
	verbose := flag.Bool("v", false, "stream per-cell progress to stderr")
	format := flag.String("format", "text", "output format: text or json (a BenchReport document)")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	tracePath := flag.String("trace", "", "record sim traces and write a Chrome trace_event JSON file here")
	profile := flag.Bool("profile", false,
		"enable the transaction-level flight recorder in every cell (profiles land in the JSON report for cmd/tmprof)")
	validatePath := flag.String("validate", "", "validate a BenchReport JSON file and exit (runs nothing)")
	list := flag.Bool("list", false, "print every experiment name with a one-line description and exit")
	flag.Parse()

	if *list {
		for _, name := range harness.Names {
			fmt.Printf("%-8s %s\n", name, harness.Descriptions[name])
		}
		return
	}
	if *validatePath != "" {
		v, err := validateReport(*validatePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asfbench:", err)
			os.Exit(2)
		}
		fmt.Printf("%s: valid %s v%d\n", *validatePath, harness.ReportSchema, v)
		return
	}
	if err := checkFlags(*format, *scale, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "asfbench:", err)
		os.Exit(2)
	}

	names, err := experimentNames(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asfbench:", err)
		os.Exit(2)
	}
	var prog io.Writer = io.Discard
	if *verbose {
		prog = os.Stderr
	}

	report := harness.NewBenchReport(*scale)
	exit := 0
	for _, name := range names {
		start := time.Now()
		rep, err := harness.RunReport(name, harness.Options{
			Scale:    *scale,
			Parallel: *parallel,
			Progress: prog,
			Trace:    *tracePath != "",
			Profile:  *profile,
		})
		if rep == nil {
			// Unreachable for validated names; defensive.
			fmt.Fprintln(os.Stderr, "asfbench:", err)
			os.Exit(2)
		}
		report.Experiments = append(report.Experiments, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asfbench: %s: some cells failed:\n%v\n", name, err)
			exit = 1
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "asfbench: %s done in %v (parallel=%d)\n",
				name, time.Since(start).Round(time.Millisecond), *parallel)
		}
	}

	if err := writeOutput(*outPath, func(w io.Writer) error {
		if *format == "json" {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(report)
		}
		for _, rep := range report.Experiments {
			for _, t := range rep.Tables {
				t.Fprint(w)
			}
		}
		return nil
	}); err != nil {
		fmt.Fprintln(os.Stderr, "asfbench:", err)
		os.Exit(2)
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, report); err != nil {
			fmt.Fprintln(os.Stderr, "asfbench:", err)
			os.Exit(2)
		}
	}
	os.Exit(exit)
}

// checkFlags rejects an unknown -format, a -scale that is not a finite
// positive number and a -parallel below 1 before anything runs: harness
// options read a zero or negative scale and worker count as their defaults,
// which would silently run the full configuration on every CPU.
func checkFlags(format string, scale float64, parallel int) error {
	switch {
	case format != "text" && format != "json":
		return fmt.Errorf("unknown -format %q (want text or json)", format)
	case !(scale > 0) || math.IsInf(scale, 1):
		return fmt.Errorf("-scale %v: want a finite number > 0", scale)
	case parallel < 1:
		return fmt.Errorf("-parallel %d: want at least 1", parallel)
	}
	return nil
}

// experimentNames parses and validates the -experiment flag: names are
// comma-separated, whitespace-trimmed, and every one must be known before
// anything runs — a typo in the last name must not cost the first
// experiment's hours.
func experimentNames(arg string) ([]string, error) {
	if strings.TrimSpace(arg) == "all" {
		return harness.Names, nil
	}
	known := map[string]bool{}
	for _, n := range harness.Names {
		known[n] = true
	}
	var names []string
	var bad []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			bad = append(bad, fmt.Sprintf("%q", name))
			continue
		}
		names = append(names, name)
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("unknown experiment(s) %s (want one of %v, or all)",
			strings.Join(bad, ", "), harness.Names)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no experiments selected (want one of %v, or all)", harness.Names)
	}
	return names, nil
}

// writeOutput writes via emit to path, or to stdout when path is empty.
func writeOutput(path string, emit func(io.Writer) error) error {
	if path == "" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace exports every traced cell as a Chrome trace_event document.
func writeTrace(path string, report *harness.BenchReport) error {
	var cells []trace.ChromeCell
	for _, rep := range report.Experiments {
		for _, c := range rep.Cells {
			if c.Trace != nil {
				cells = append(cells, trace.ChromeCell{Name: rep.Name + " " + c.Label, Run: c.Trace})
			}
		}
	}
	return writeOutput(path, func(w io.Writer) error {
		return trace.WriteChrome(w, cells)
	})
}

// validateReport checks that path holds a well-formed BenchReport of the
// schema and version this binary understands.
func validateReport(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	rep, err := harness.DecodeReport(data)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return rep.Version, nil
}
