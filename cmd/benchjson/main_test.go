package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseString(t *testing.T, s string) map[string]entry {
	t.Helper()
	res, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseBenchLines(t *testing.T) {
	out := `
goos: linux
BenchmarkFig5 	       1	5086217894 ns/op
BenchmarkSimulatorOpRate/solo         	  109178	     21864 ns/op	        21.86 host_ns/op
BenchmarkSimulatorOpRate/8core        	     996	   2345366 ns/op	       293.2 host_ns/op
BenchmarkStampGenomeASF 	       2	 512345678 ns/op	        12.5 sim_ms
PASS
`
	res := parseString(t, out)
	if len(res) != 4 {
		t.Fatalf("parsed %d entries, want 4: %v", len(res), res)
	}
	if e := res["BenchmarkFig5"]; e.NsPerOp != 5086217894 || e.Iters != 1 {
		t.Fatalf("Fig5 = %+v", e)
	}
	if e := res["BenchmarkSimulatorOpRate/8core"]; e.Metrics["host_ns/op"] != 293.2 {
		t.Fatalf("8core metrics = %+v", e.Metrics)
	}
	if e := res["BenchmarkStampGenomeASF"]; e.Metrics["sim_ms"] != 12.5 {
		t.Fatalf("genome metrics = %+v", e.Metrics)
	}
}

func TestLastOccurrenceWins(t *testing.T) {
	out := `
BenchmarkSimulatorOpRate/solo 	1	80000 ns/op	80.0 host_ns/op
BenchmarkSimulatorOpRate/solo 	100000	22000 ns/op	22.0 host_ns/op
`
	res := parseString(t, out)
	if e := res["BenchmarkSimulatorOpRate/solo"]; e.Metrics["host_ns/op"] != 22.0 {
		t.Fatalf("later line did not win: %+v", e)
	}
}

func TestProcSuffixStripping(t *testing.T) {
	// All names share -8: it is the GOMAXPROCS suffix and must go.
	res := parseString(t, `
BenchmarkFig5-8 	1	5086217894 ns/op
BenchmarkAtomicOverhead/LLB-256-8 	10	1000 ns/op
`)
	if _, ok := res["BenchmarkAtomicOverhead/LLB-256"]; !ok {
		t.Fatalf("suffix not stripped: %v", res)
	}
	// Mixed digit endings: legitimate parts of the names, keep them.
	res = parseString(t, `
BenchmarkAtomicOverhead/LLB-256 	10	1000 ns/op
BenchmarkAtomicOverhead/LLB-8 	10	1000 ns/op
`)
	if _, ok := res["BenchmarkAtomicOverhead/LLB-256"]; !ok {
		t.Fatalf("legitimate digit suffix stripped: %v", res)
	}
}

// writeDoc marshals d to a file under t.TempDir and returns its path.
func writeDoc(t *testing.T, d doc) string {
	t.Helper()
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_TEST.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func validDoc() doc {
	return doc{
		Schema:  schema,
		Version: version,
		Sections: map[string]map[string]entry{
			"baseline": {
				"BenchmarkFig5": {NsPerOp: 100, Iters: 1,
					Metrics: map[string]float64{"allocs/op": 10, "B/op": 2048, "sim_ms": 12.5}},
			},
			"current": {
				"BenchmarkFig5": {NsPerOp: 150, Iters: 1,
					Metrics: map[string]float64{"allocs/op": 10, "B/op": 2048, "sim_ms": 12.5}},
			},
		},
	}
}

func TestCheckFileValid(t *testing.T) {
	v, err := checkFile(writeDoc(t, validDoc()))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if v != version {
		t.Fatalf("reported version %d, want %d", v, version)
	}
	// Version-1 documents (committed baselines) remain valid and report
	// their own version.
	d := validDoc()
	d.Version = 1
	if v, err := checkFile(writeDoc(t, d)); err != nil || v != 1 {
		t.Fatalf("v1 document: version %d, err %v", v, err)
	}
}

func TestCheckFileRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*doc)
		errWant string
	}{
		{"wrong schema", func(d *doc) { d.Schema = "other/schema" }, "schema"},
		{"wrong version", func(d *doc) { d.Version = 99 }, "version"},
		{"no sections", func(d *doc) { d.Sections = nil }, "no sections"},
		{"empty section", func(d *doc) { d.Sections["baseline"] = map[string]entry{} }, "is empty"},
		{"non-benchmark name", func(d *doc) {
			d.Sections["baseline"]["notabench"] = entry{NsPerOp: 1, Iters: 1}
		}, "not a benchmark name"},
		{"zero iters", func(d *doc) {
			d.Sections["baseline"]["BenchmarkFig5"] = entry{NsPerOp: 1, Iters: 0}
		}, "iters"},
		{"negative ns/op", func(d *doc) {
			d.Sections["baseline"]["BenchmarkFig5"] = entry{NsPerOp: -1, Iters: 1}
		}, "negative ns/op"},
		{"negative metric", func(d *doc) {
			d.Sections["baseline"]["BenchmarkFig5"] = entry{NsPerOp: 1, Iters: 1,
				Metrics: map[string]float64{"B/op": -8}}
		}, "negative B/op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := validDoc()
			tc.mutate(&d)
			_, err := checkFile(writeDoc(t, d))
			if err == nil || !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("err = %v, want mention of %q", err, tc.errWant)
			}
		})
	}
}

func TestCheckFileTruncatedJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_TRUNC.json")
	if err := os.WriteFile(path, []byte(`{"schema": "asfstack/bench-js`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkFile(path); err == nil || !strings.Contains(err.Error(), "not valid JSON") {
		t.Fatalf("truncated JSON accepted: %v", err)
	}
}

// TestCompareHostGrowthAdvisory: host-time growth alone (ns/op and host
// units) must not gate — deterministic metrics are unchanged.
func TestCompareHostGrowthAdvisory(t *testing.T) {
	path := writeDoc(t, validDoc()) // ns/op grows 100 → 150
	var b strings.Builder
	regressed, err := compareSections(&b, path, "baseline,current")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("host-only growth gated:\n%s", b.String())
	}
	out := b.String()
	if !strings.Contains(out, "(host, advisory)") {
		t.Fatalf("missing advisory marker:\n%s", out)
	}
	if strings.Contains(out, "REGRESSED") || strings.Contains(out, "FAIL") {
		t.Fatalf("advisory delta flagged as regression:\n%s", out)
	}
}

// TestCompareDeterministicRegression: allocs/op or B/op growing from the
// first section to the second must flag the run as regressed.
func TestCompareDeterministicRegression(t *testing.T) {
	for _, unit := range deterministicMetrics {
		t.Run(unit, func(t *testing.T) {
			d := validDoc()
			e := d.Sections["current"]["BenchmarkFig5"]
			e.Metrics[unit] = e.Metrics[unit] + 1
			d.Sections["current"]["BenchmarkFig5"] = e
			var b strings.Builder
			regressed, err := compareSections(&b, writeDoc(t, d), "baseline,current")
			if err != nil {
				t.Fatal(err)
			}
			if !regressed {
				t.Fatalf("%s growth not flagged:\n%s", unit, b.String())
			}
			out := b.String()
			if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "FAIL") {
				t.Fatalf("missing REGRESSED/FAIL markers:\n%s", out)
			}
		})
	}
}

// TestCompareDeterministicImprovement: shrinking allocs/op is not a
// regression — only growth gates.
func TestCompareDeterministicImprovement(t *testing.T) {
	d := validDoc()
	e := d.Sections["current"]["BenchmarkFig5"]
	e.Metrics["allocs/op"] = 5
	d.Sections["current"]["BenchmarkFig5"] = e
	var b strings.Builder
	regressed, err := compareSections(&b, writeDoc(t, d), "baseline,current")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("improvement flagged as regression:\n%s", b.String())
	}
}

// TestCompareOneSidedBenchmarks: benchmarks present in only one section
// are listed but never gate.
func TestCompareOneSidedBenchmarks(t *testing.T) {
	d := validDoc()
	d.Sections["baseline"]["BenchmarkOldOnly"] = entry{NsPerOp: 1, Iters: 1}
	d.Sections["current"]["BenchmarkNewOnly"] = entry{NsPerOp: 1, Iters: 1}
	var b strings.Builder
	regressed, err := compareSections(&b, writeDoc(t, d), "baseline,current")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatal("one-sided benchmarks gated the comparison")
	}
	out := b.String()
	if !strings.Contains(out, "BenchmarkOldOnly") || !strings.Contains(out, `only in "baseline"`) {
		t.Fatalf("baseline-only benchmark not listed:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkNewOnly") || !strings.Contains(out, `only in "current"`) {
		t.Fatalf("current-only benchmark not listed:\n%s", out)
	}
}

// TestCompareLatencyAdvisory: the v2 latency quantile units are reported
// with their own advisory marker and never gate, however much they grow.
func TestCompareLatencyAdvisory(t *testing.T) {
	d := validDoc()
	for sec, p99 := range map[string]float64{"baseline": 50_000, "current": 900_000} {
		e := d.Sections[sec]["BenchmarkFig5"]
		e.Metrics["p99_cyc"] = p99
		d.Sections[sec]["BenchmarkFig5"] = e
	}
	var b strings.Builder
	regressed, err := compareSections(&b, writeDoc(t, d), "baseline,current")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("latency growth gated the comparison:\n%s", b.String())
	}
	out := b.String()
	if !strings.Contains(out, "p99_cyc") || !strings.Contains(out, "(sim latency, advisory)") {
		t.Fatalf("latency delta not reported as advisory:\n%s", out)
	}
}

// TestCompareMixedSchemaLatency: comparing a pre-v2 section (no latency
// units) against a v2 one degrades gracefully — the one-sided units are
// noted, nothing errors, nothing gates.
func TestCompareMixedSchemaLatency(t *testing.T) {
	d := validDoc() // baseline stays v1-shaped: no latency units
	e := d.Sections["current"]["BenchmarkFig5"]
	e.Metrics["p50_cyc"] = 40_000
	e.Metrics["p99_cyc"] = 250_000
	d.Sections["current"]["BenchmarkFig5"] = e
	var b strings.Builder
	regressed, err := compareSections(&b, writeDoc(t, d), "baseline,current")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("mixed-schema compare gated:\n%s", b.String())
	}
	out := b.String()
	if !strings.Contains(out, "p99_cyc") || !strings.Contains(out, `only in "current"`) {
		t.Fatalf("one-sided latency units not noted:\n%s", out)
	}
	if strings.Contains(out, "REGRESSED") || strings.Contains(out, "FAIL") {
		t.Fatalf("mixed-schema compare flagged a regression:\n%s", out)
	}
}

func TestCompareBadSpecAndMissingSection(t *testing.T) {
	path := writeDoc(t, validDoc())
	var b strings.Builder
	for _, spec := range []string{"", "baseline", "baseline,", ",current", "a,b,c"} {
		if _, err := compareSections(&b, path, spec); err == nil {
			t.Fatalf("bad spec %q accepted", spec)
		}
	}
	if _, err := compareSections(&b, path, "baseline,nosuch"); err == nil ||
		!strings.Contains(err.Error(), `no section "nosuch"`) {
		t.Fatalf("missing section err = %v", err)
	}
}
