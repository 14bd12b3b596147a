package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"asfstack/internal/cache"
	"asfstack/internal/harness"
	"asfstack/internal/mem"
)

func TestFoldRule(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.coroswitch_m", "runtime.systemstack"}, "runtime.coro"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{[]string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "asfstack/internal/harness.RunReport"}, "harness"},
		{[]string{"asfstack/internal/cache.(*Hierarchy).Access", "asfstack/internal/sim.(*CPU).access"}, "cache"},
		{[]string{"runtime.coroswitch", "iter.Pull[...].func1", "asfstack/internal/sim.(*CPU).park"}, "sim"},
		{[]string{"runtime.mallocgc", "asfstack.(*Stack).Atomic"}, "stack"},
		{[]string{"asfstack/internal/harness.(*slot[go.shape.float64]).set"}, "harness"},
		{[]string{"asfstack/internal/litmus.Explore"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
		{nil, "other"},
	} {
		if got := moduleOf(tc.frames); got != tc.want {
			t.Errorf("moduleOf(%q) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestProfileDecoder records a CPU profile of a loop in the cache layer and
// checks that the decoder and the fold charge it there.
func TestProfileDecoder(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	h := cache.New(1, cache.Barcelona())
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		for i := 0; i < 10_000; i++ {
			h.Access(0, mem.Addr(i%8192*mem.LineSize), i%3 == 0)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range p.samples {
		found = found || slices.Contains(p.frames(s), "asfstack/internal/cache.(*Hierarchy).Access")
	}
	if byModule := p.fold(); !found || byModule["cache"] <= 0 {
		t.Errorf("no sample in cache.(*Hierarchy).Access, or none folded to cache: %v", byModule)
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined (want 2–8)", n, len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, defined %q", i, b.Workloads[i].Name, w.name)
		}
		for _, e := range w.exps {
			if !slices.Contains(harness.Names, e) {
				t.Errorf("%s: experiment %q not in harness.Names", w.name, e)
			}
		}
	}

	var e2e []metricDef
	for _, m := range endToEnd(nil, nil) {
		e2e = append(e2e, m.metricDef)
	}
	if !slices.Equal(b.EndToEnd, e2e) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the emitted\n%v", b.EndToEnd, e2e)
	}
	if !slices.Equal(b.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the emitted\n%v", b.PerLayer, perLayerDefs())
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want ≤ 16 and ≤ 128", len(b.EndToEnd), len(b.PerLayer))
	}
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		maxBound = max(maxBound, m.Bound)
	}
	if !slices.Contains(b.EndToEnd, metricDef{"setup_s", "s", "lower", maxBound}) {
		t.Error("setup_s missing, or its bound is not the largest")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(b.EndToEnd), b.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestContractLine checks that the closing JSON line of a single-workload
// run holds exactly the declared end-to-end (untraced) or per-layer
// (traced) metrics.
func TestContractLine(t *testing.T) {
	var probeMetrics []metric
	for _, p := range probes {
		probeMetrics = append(probeMetrics, metric{metricDef: metricDef{Name: p.name, Unit: p.unit}})
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		slices.Sort(out)
		return out
	}
	var e2e []metricDef
	for _, m := range endToEnd(nil, nil) {
		e2e = append(e2e, m.metricDef)
	}
	for _, trace := range []bool{false, true} {
		res := &results{Provenance: provenance{Trace: trace}, Workloads: []*workloadResult{
			{Name: "intset", Correct: true, Metrics: slices.Concat(endToEnd(nil, nil), hostTime(nil), layerMetrics(nil, traced{}, 0))},
		}}
		want := names(e2e)
		if trace {
			res.Workloads = append(res.Workloads, &workloadResult{Name: "-", Correct: true, Metrics: probeMetrics})
			want = names(perLayerDefs())
		}
		got := slices.Sorted(maps.Keys(contractLine(res).Metrics))
		if !slices.Equal(got, want) {
			t.Errorf("trace=%v: emitted %v, declared %v", trace, got, want)
		}
	}
}

// TestDigestsRepeat runs a small sweep twice: the digests must agree, and a
// changed cell must fail the check.
func TestDigestsRepeat(t *testing.T) {
	w := workload{"table1-small", []string{"table1"}, 0.01}
	var ds [2]digests
	var reps []*harness.ExperimentReport
	for i := range ds {
		var err error
		if reps, err = w.sweep(); err != nil {
			t.Fatal(err)
		}
		if ds[i], err = digestReports(reps); err != nil {
			t.Fatal(err)
		}
	}
	if ds[0].Tables != ds[1].Tables || !maps.Equal(ds[0].Cells, ds[1].Cells) {
		t.Fatalf("digests differ between two runs:\n%v\n%v", ds[0], ds[1])
	}
	ck, err := ds[0].verify(reps)
	if err != nil || ck.Failed != 0 || !ck.TablesOK || ck.Cells != len(ds[0].Cells) {
		t.Fatalf("verify against own digests: %+v, %v", ck, err)
	}
	reps[0].Cells[0].Sim.Cycles++
	if ck, _ := ds[0].verify(reps); ck.Failed != 1 {
		t.Errorf("a changed cell left %d cells failed, want 1", ck.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([3, 1, 2], n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{"wall_s", "s", "lower", 0.05}
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{10, 10.1, 9.95, 10.02, 10}, "same"},
		{[]float64{11, 11.1, 10.9, 11, 11.05}, "worse"},
		{[]float64{9, 9.1, 8.9, 9, 9.05}, "better"},
		{[]float64{8, 12, 10, 9, 11}, "unresolved"},
		{[]float64{5, 9, 7, 6, 8}, "better"}, // wide, but every run beats every baseline run
	} {
		if _, got := verdict(d, base, tc.b); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
	setup := metricDef{"setup_s", "s", "lower", 0.25}
	if _, got := verdict(setup, []float64{1, 1.1, 1.9, 1, 1.2}, []float64{1.1, 1, 1.8, 1.05, 1}); got != "same" {
		t.Errorf("setup_s with a wide spread read %s, want same (judged on medians)", got)
	}
	higher := metricDef{"x", "1/s", "higher", 0.05}
	if _, got := verdict(higher, base, []float64{11, 11.1, 10.9, 11, 11.05}); got != "better" {
		t.Errorf("higher-is-better gain read %s", got)
	}
}

// TestProbesRun runs every probe briefly: each must take the path it is
// named for and report a positive cost.
func TestProbesRun(t *testing.T) {
	for _, p := range probes {
		run, err := p.prepare(1, 8192)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for range 2 { // the second run starts from the state the first left
			if v, err := run(); err != nil || v <= 0 {
				t.Errorf("%s: %g, %v", p.name, v, err)
			}
		}
	}
}
