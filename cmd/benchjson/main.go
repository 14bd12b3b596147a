// Command benchjson converts `go test -bench` output into the repo's
// BENCH_*.json format: one JSON document with named sections (typically
// "baseline" and "current"), each mapping benchmark name to host ns/op and
// the benchmark's custom metrics (host_ns/op, sim_ms, simtx/us, ...).
//
//	go test -run '^$' -bench . -benchtime 1x . > BENCH_OUT.txt
//	go run ./cmd/benchjson -o BENCH_PR4.json -section current < BENCH_OUT.txt
//
// An existing output file is updated in place: only the named section is
// replaced, so a committed baseline survives re-runs of the current section.
// When the same benchmark appears more than once in the input, the last
// occurrence wins — the Makefile uses that to re-run the noise-sensitive
// micro-benchmarks with a longer -benchtime after the 1x figure pass.
//
// Two further modes read instead of write:
//
//	benchjson -compare baseline,current -o BENCH_PR4.json
//	benchjson -check BENCH_PR4.json BENCH_PR5.json
//
// -compare prints per-benchmark deltas between two recorded sections and
// exits 1 when a deterministic metric — allocs/op or B/op — regressed
// (grew) from the first section to the second; host-time deltas (ns/op,
// host_ns/op) vary run to run and are printed as advisory only. -check
// validates each named file against the bench-json schema — a hand-edited
// or truncated baseline fails — and exits 1 on the first invalid file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Schema versioning: version 2 added the open-loop latency quantile units
// (p50_cyc, p95_cyc, p99_cyc, p999_cyc — simulated cycles, deterministic
// but load-shaped, so -compare reports them as advisory). Readers accept
// any version in 1..version; sections written by older binaries simply
// lack the latency units and mixed-schema compares note them one-sided.
const (
	schema  = "asfstack/bench-json"
	version = 2
)

// entry is one benchmark's measurements.
type entry struct {
	// NsPerOp is the host wall time per benchmark iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// Iters is the iteration count the measurement averaged over.
	Iters int64 `json:"iters"`
	// Metrics carries the benchmark's custom units (host_ns/op, sim_ms,
	// simtx/us, B/op, ...), keyed by unit string.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type doc struct {
	Schema   string                      `json:"schema"`
	Version  int                         `json:"version"`
	Sections map[string]map[string]entry `json:"sections"`
}

func main() {
	out := flag.String("o", "BENCH_PR4.json", "output JSON file (updated in place)")
	section := flag.String("section", "current", "section of the output file to replace")
	compare := flag.String("compare", "",
		"compare two sections of the -o file (SECTION_A,SECTION_B); exit 1 when allocs/op or B/op regresses")
	check := flag.Bool("check", false, "validate the named BENCH_*.json files against the bench-json schema and exit")
	flag.Parse()

	if *check {
		if len(flag.Args()) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: -check needs at least one file argument")
			os.Exit(1)
		}
		for _, path := range flag.Args() {
			v, err := checkFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			fmt.Printf("%s: valid %s v%d\n", path, schema, v)
		}
		return
	}
	if *compare != "" {
		regressed, err := compareSections(os.Stdout, *out, *compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	parsed, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(parsed) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	d := load(*out)
	d.Sections[*section] = parsed
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(parsed))
	for n := range parsed {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: wrote %d benchmarks to section %q\n", *out, len(names), *section)
	for _, n := range names {
		fmt.Printf("  %-45s %12.2f ns/op\n", n, parsed[n].NsPerOp)
	}
}

// deterministicMetrics are the benchmark units that must not vary between
// runs of the same code: a growth from one section to the next is a real
// regression, not noise, so -compare gates on them.
var deterministicMetrics = []string{"allocs/op", "B/op"}

// checkFile validates one BENCH_*.json document: well-formed JSON of the
// right schema and an accepted version (1..version), at least one section,
// and sane entries. It is the CI guard against hand-edited or truncated
// baselines, and returns the document's own version.
func checkFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return 0, fmt.Errorf("%s: not valid JSON: %v", path, err)
	}
	if d.Schema != schema {
		return 0, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
	}
	if d.Version < 1 || d.Version > version {
		return 0, fmt.Errorf("%s: version %d, want 1..%d", path, d.Version, version)
	}
	if len(d.Sections) == 0 {
		return 0, fmt.Errorf("%s: no sections", path)
	}
	for name, sec := range d.Sections {
		if len(sec) == 0 {
			return 0, fmt.Errorf("%s: section %q is empty", path, name)
		}
		for bench, e := range sec {
			if !strings.HasPrefix(bench, "Benchmark") {
				return 0, fmt.Errorf("%s: section %q: entry %q is not a benchmark name", path, name, bench)
			}
			if e.Iters <= 0 {
				return 0, fmt.Errorf("%s: section %q: %s: iters = %d", path, name, bench, e.Iters)
			}
			if e.NsPerOp < 0 {
				return 0, fmt.Errorf("%s: section %q: %s: negative ns/op", path, name, bench)
			}
			for unit, v := range e.Metrics {
				if v < 0 {
					return 0, fmt.Errorf("%s: section %q: %s: negative %s", path, name, bench, unit)
				}
			}
		}
	}
	return d.Version, nil
}

// latencyUnit reports whether a benchmark unit is an open-loop latency
// quantile (simulated cycles, schema v2). Deterministic for a fixed
// config, but shaped by offered load — compared as advisory, never gated.
func latencyUnit(u string) bool { return strings.HasSuffix(u, "_cyc") }

// compareSections prints per-benchmark deltas between two sections of the
// document at path and reports whether any deterministic metric regressed.
// Host-time deltas are advisory: they vary with machine and load.
func compareSections(w io.Writer, path, spec string) (regressed bool, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 || strings.TrimSpace(parts[0]) == "" || strings.TrimSpace(parts[1]) == "" {
		return false, fmt.Errorf("-compare wants SECTION_A,SECTION_B, got %q", spec)
	}
	secA, secB := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	if _, err := checkFile(path); err != nil {
		return false, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return false, err
	}
	a, ok := d.Sections[secA]
	if !ok {
		return false, fmt.Errorf("%s: no section %q (have %v)", path, secA, sectionNames(d))
	}
	b, ok := d.Sections[secB]
	if !ok {
		return false, fmt.Errorf("%s: no section %q (have %v)", path, secB, sectionNames(d))
	}
	det := map[string]bool{}
	for _, m := range deterministicMetrics {
		det[m] = true
	}
	names := make([]string, 0, len(a))
	for n := range a {
		if _, ok := b[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s: sections %q and %q share no benchmarks", path, secA, secB)
	}

	fmt.Fprintf(w, "%-45s %-12s %14s %14s %9s\n", "benchmark", "metric", secA, secB, "delta")
	for _, n := range names {
		ea, eb := a[n], b[n]
		fmt.Fprintf(w, "%-45s %-12s %14.2f %14.2f %8.1f%%  (host, advisory)\n",
			n, "ns/op", ea.NsPerOp, eb.NsPerOp, pctDelta(ea.NsPerOp, eb.NsPerOp))
		units := make([]string, 0, len(ea.Metrics))
		for u := range ea.Metrics {
			if _, ok := eb.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			va, vb := ea.Metrics[u], eb.Metrics[u]
			verdict := "(host, advisory)"
			if det[u] {
				verdict = "(deterministic)"
				if vb > va {
					verdict = "(deterministic) REGRESSED"
					regressed = true
				}
			} else if latencyUnit(u) {
				verdict = "(sim latency, advisory)"
			}
			fmt.Fprintf(w, "%-45s %-12s %14.2f %14.2f %8.1f%%  %s\n", n, u, va, vb, pctDelta(va, vb), verdict)
		}
		// Latency units present on only one side (the other section was
		// written by an older, pre-v2 binary): note them, never gate.
		for _, pair := range []struct {
			have, miss map[string]float64
			sec        string
		}{{eb.Metrics, ea.Metrics, secB}, {ea.Metrics, eb.Metrics, secA}} {
			var only []string
			for u := range pair.have {
				if _, ok := pair.miss[u]; !ok && latencyUnit(u) {
					only = append(only, u)
				}
			}
			sort.Strings(only)
			for _, u := range only {
				fmt.Fprintf(w, "%-45s %-12s only in %q (older schema on the other side; advisory)\n", n, u, pair.sec)
			}
		}
	}
	for n := range a {
		if _, ok := b[n]; !ok {
			fmt.Fprintf(w, "%-45s only in %q\n", n, secA)
		}
	}
	for n := range b {
		if _, ok := a[n]; !ok {
			fmt.Fprintf(w, "%-45s only in %q\n", n, secB)
		}
	}
	if regressed {
		fmt.Fprintf(w, "FAIL: deterministic metric regressed from %q to %q\n", secA, secB)
	}
	return regressed, nil
}

func pctDelta(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 100
	}
	return (b - a) / a * 100
}

func sectionNames(d doc) []string {
	names := make([]string, 0, len(d.Sections))
	for n := range d.Sections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// load reads an existing output document, or returns an empty one when the
// file is absent or from an incompatible schema.
func load(path string) doc {
	d := doc{Schema: schema, Version: version, Sections: map[string]map[string]entry{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return d
	}
	var prev doc
	if json.Unmarshal(data, &prev) != nil || prev.Schema != schema {
		return d
	}
	if prev.Sections != nil {
		d.Sections = prev.Sections
	}
	return d
}

// parse extracts benchmark result lines:
//
//	BenchmarkFig5        1  5086217894 ns/op
//	BenchmarkSimulatorOpRate/8core  996  2345366 ns/op  293.2 host_ns/op
func parse(sc *bufio.Scanner) (map[string]entry, error) {
	res := map[string]entry{}
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		e := entry{Iters: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			if f[i+1] == "ns/op" {
				e.NsPerOp = v
			} else {
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[f[i+1]] = v
			}
		}
		res[f[0]] = e
	}
	return stripProcSuffix(res), sc.Err()
}

// stripProcSuffix drops the -GOMAXPROCS suffix go test appends when procs
// is not 1, so names are comparable across hosts. The suffix is appended to
// every benchmark of a run or to none, so it is stripped only when all
// names share the same trailing -N — names that legitimately end in digits
// (LLB-256) never match across a whole run.
func stripProcSuffix(res map[string]entry) map[string]entry {
	suffix := ""
	for name := range res {
		i := strings.LastIndexByte(name, '-')
		if i < 0 || i+1 == len(name) {
			return res
		}
		for _, r := range name[i+1:] {
			if r < '0' || r > '9' {
				return res
			}
		}
		if suffix == "" {
			suffix = name[i:]
		} else if suffix != name[i:] {
			return res
		}
	}
	if suffix == "" {
		return res
	}
	out := make(map[string]entry, len(res))
	for name, e := range res {
		out[strings.TrimSuffix(name, suffix)] = e
	}
	return out
}
