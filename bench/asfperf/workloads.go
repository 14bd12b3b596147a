package main

import (
	"fmt"
	"slices"
	"strings"

	"asfstack/internal/harness"
	"asfstack/internal/metrics"
)

// workload is one pinned sweep: experiments run back to back through
// harness.RunReport on one worker, at one scale. Each is a closed loop with
// one client. The sweeps' seeds are fixed by the experiment definitions, so
// a workload's simulated output is pinned by its digests (digests.json).
type workload struct {
	name  string
	exps  []string
	scale float64
}

// workloads are the benchmark's inputs. They are chosen so that each layer
// of the stack is exercised by one workload and bypassed by another; the
// layer → end-to-end map in bench/README.md states which numbers each
// layer should move where.
var workloads = []workload{
	// Fig. 5 at its reported size: read-mostly small sets on 1–8
	// near-lockstep cores under all four ASF variants, so the L1-hit path,
	// the turn hand-off and ASF tracking dominate. No STM, no fallback.
	{"intset", []string{"fig5"}, 1},
	// Fig. 4: large working sets (L2/L3/DRAM fills, TLB walks), STM
	// barriers and transactional allocation beside the ASF variants; the
	// timing model's miss paths carry the work.
	{"stamp", []string{"fig4"}, 1},
	// E16 open-loop OLTP: up to 64 cores on 4 sockets, cross-socket hops,
	// aborts and fallbacks. The only workload that runs HyTM, Cohorts or
	// Adaptive, and the hand-off heap is 64 deep.
	{"server", []string{"server"}, 0.25},
	// Single-threaded cells only: the lease is unbounded and the hand-off
	// does almost no work. The control on which a hand-off optimisation
	// must show no change; it isolates per-op timing-model and barrier cost.
	{"solo", []string{"fig3", "table1"}, 16},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// sweep runs the workload's experiments once. Failed cells are not an
// error here: they carry their error in the report and fail the digest
// check.
func (w workload) sweep() ([]*harness.ExperimentReport, error) {
	var reps []*harness.ExperimentReport
	for _, name := range w.exps {
		rep, err := harness.RunReport(name, harness.Options{Scale: w.scale, Parallel: 1})
		if rep == nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// metricDef declares one metric as BENCHMARK.json does. Bound is set on
// end-to-end metrics only, so a non-zero bound marks one: the share of the
// baseline median by which the metric may worsen before a change counts as
// a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metric is one measured value.
type metric struct {
	metricDef
	Value float64 `json:"value"`
}

// pass is one untraced sweep of a workload, measured in the child.
type pass struct {
	WallS    float64   `json:"wall_s"`
	CPUS     float64   `json:"cpu_s"`      // child user+sys over the sweep
	AllocB   uint64    `json:"alloc_b"`    // TotalAlloc delta
	Mallocs  uint64    `json:"mallocs"`    // Mallocs delta
	EncodeS  float64   `json:"encode_s"`   // json.Marshal of the reports
	GCCPUPct float64   `json:"gc_cpu_pct"` // GC share of the busy CPU time
	CellMS   []float64 `json:"cell_ms"`    // host wall of every cell
	Check    check     `json:"check"`
	Work     work      `json:"work"`
}

// traced is the traced sweep: the same call under a CPU profile, folded
// into modules.
type traced struct {
	WallS    float64          `json:"wall_s"`
	ModuleNS map[string]int64 `json:"module_ns"`
	Check    check            `json:"check"`
	Work     work             `json:"work"`
}

// check is the digest gate's verdict on one sweep.
type check struct {
	Cells    int  `json:"cells"`
	Failed   int  `json:"failed"`    // errored or digest mismatch
	TablesOK bool `json:"tables_ok"` // the workload's tables digest matched
}

// work sums the deterministic sim sections of one sweep's cells.
type work struct {
	Loads, Stores, L1Hits, L2Hits, L3Hits uint64
	MemFills, C2C, TLBWalks, XSockHops    uint64
	ASFStarts, ASFCommits                 uint64
	Commits, Attempts, Serial, SWCommits  uint64
	WastedCycles, BusyCycles              uint64
}

func (w work) ops() uint64 { return w.Loads + w.Stores }

func countWork(reps []*harness.ExperimentReport) work {
	var w work
	for _, rep := range reps {
		for _, c := range rep.Cells {
			if c.Sim == nil {
				continue
			}
			st := c.Sim.Stats
			w.Commits += st.Commits
			w.Attempts += st.Attempts()
			w.Serial += st.Serial
			w.SWCommits += st.SWCommits
			w.WastedCycles += c.Sim.WastedCycles
			w.BusyCycles += c.Sim.BusyCycles
			if m := c.Sim.Metrics; m != nil {
				w.Loads += gauge(m, "cache/loads")
				w.Stores += gauge(m, "cache/stores")
				w.L1Hits += gauge(m, "cache/l1_hits")
				w.L2Hits += gauge(m, "cache/l2_hits")
				w.L3Hits += gauge(m, "cache/l3_hits")
				w.MemFills += gauge(m, "cache/mem_fills")
				w.C2C += gauge(m, "cache/c2c_transfers")
				w.TLBWalks += gauge(m, "cache/tlb_walks")
				w.XSockHops += gauge(m, "cache/xsock_hops")
				w.ASFStarts += counter(m, "asf/starts")
				w.ASFCommits += counter(m, "asf/commits")
			}
		}
	}
	return w
}

func gauge(m *metrics.Snapshot, name string) uint64 {
	g, _ := m.Gauge(name)
	return g.Total
}

func counter(m *metrics.Snapshot, name string) uint64 {
	c, _ := m.Counter(name)
	return c.Total
}

// endToEnd assembles a workload's end-to-end metrics from its untraced
// passes (medians over passes) and its set-up times (median over child
// starts). The order is BENCHMARK.json's.
//
// Host time is not among them. On the shared host the benchmark was defined
// on, neighbours' load moved a sweep's wall time in level shifts lasting
// minutes: over ten runs the quartile spread reached 0.27 of the median,
// beyond the largest bound an end-to-end metric may carry. Host times are
// per-layer metrics (harness.wall_s and its kin), and -compare judges them.
func endToEnd(passes []pass, setupS []float64) []metric {
	med := func(f func(p pass) float64) float64 { return medianOver(passes, f) }
	return []metric{
		{metricDef{"alloc_mb", "MiB", "lower", 0.02}, med(func(p pass) float64 { return float64(p.AllocB) / (1 << 20) })},
		{metricDef{"allocs_k", "k", "lower", 0.02}, med(func(p pass) float64 { return float64(p.Mallocs) / 1e3 })},
		{metricDef{"setup_s", "s", "lower", 0.25}, median(setupS)},
	}
}

// hostTime lists a workload's host-time metrics, medians over its untraced
// passes.
func hostTime(passes []pass) []metric {
	med := func(f func(p pass) float64) float64 { return medianOver(passes, f) }
	return []metric{
		{metricDef{"harness.wall_s", "s", "lower", 0}, med(func(p pass) float64 { return p.WallS })},
		{metricDef{"harness.host_ns_per_op", "ns", "lower", 0},
			med(func(p pass) float64 { return ratio(p.WallS*1e9, float64(p.Work.ops())) })},
		{metricDef{"harness.cpu_s", "s", "lower", 0}, med(func(p pass) float64 { return p.CPUS })},
	}
}

// modules are the layers host time is charged to: the internal packages a
// workload reaches, the root package (stack), the coroutine switch and
// background GC (which run without repo frames), and everything else.
var modules = []string{
	"sim", "runtime.coro", "cache", "topo", "mem", "asf", "tm", "asftm", "hytm", "stm",
	"cohorts", "adaptive", "txlib", "txprof", "intset", "stamp", "server", "seq",
	"metrics", "harness", "stack", "runtime.gc", "other",
}

// layerMetrics assembles a workload's per-layer metrics, except host times
// and probes, from its untraced passes, its traced pass and the child's
// peak RSS, in BENCHMARK.json's order. Host-time values are medians over
// the untraced passes; work counts are deterministic.
func layerMetrics(passes []pass, tr traced, peakRSSMB float64) []metric {
	var out []metric
	add := func(name, unit, better string, v float64) {
		out = append(out, metric{metricDef{name, unit, better, 0}, v})
	}
	var total int64
	for _, ns := range tr.ModuleNS {
		total += ns
	}
	ops := float64(tr.Work.ops())
	for _, m := range modules {
		ns := float64(tr.ModuleNS[m])
		add(m+".self_pct", "%", "lower", ratio(100*ns, float64(total)))
		add(m+".ns_per_op", "ns", "lower", ratio(ns, ops))
	}
	med := func(f func(p pass) float64) float64 { return medianOver(passes, f) }
	wall := med(func(p pass) float64 { return p.WallS })
	add("trace.overhead_pct", "%", "lower", ratio(100*(tr.WallS-wall), wall))

	w := tr.Work
	add("sim.ops", "count", "higher", ops)
	add("cache.l1_hit_pct", "%", "higher", ratio(100*float64(w.L1Hits), ops))
	add("cache.l2_hits", "count", "higher", float64(w.L2Hits))
	add("cache.l3_hits", "count", "higher", float64(w.L3Hits))
	add("cache.mem_fills", "count", "lower", float64(w.MemFills))
	add("cache.c2c_transfers", "count", "lower", float64(w.C2C))
	add("cache.tlb_walks", "count", "lower", float64(w.TLBWalks))
	add("cache.xsock_hops", "count", "lower", float64(w.XSockHops))
	add("asf.starts", "count", "higher", float64(w.ASFStarts))
	add("asf.commit_pct", "%", "higher", ratio(100*float64(w.ASFCommits), float64(w.ASFStarts)))
	add("tm.commits", "count", "higher", float64(w.Commits))
	add("tm.useful_pct", "%", "higher", ratio(100*float64(w.Commits), float64(w.Attempts)))
	add("tm.serial", "count", "lower", float64(w.Serial))
	add("tm.sw_commits", "count", "higher", float64(w.SWCommits))
	add("tm.wasted_pct", "%", "lower", ratio(100*float64(w.WastedCycles), float64(w.BusyCycles)))

	add("harness.cells", "count", "higher", float64(tr.Check.Cells))
	add("harness.cell_ms_p50", "ms", "lower", med(func(p pass) float64 { return percentile(p.CellMS, 50) }))
	add("harness.cell_ms_tail", "ms", "lower", med(func(p pass) float64 { return percentile(p.CellMS, tailPct(len(p.CellMS))) }))
	add("harness.overhead_ms", "ms", "lower", med(func(p pass) float64 {
		sum := 0.0
		for _, ms := range p.CellMS {
			sum += ms
		}
		return 1e3*p.WallS - sum
	}))
	add("harness.encode_ms", "ms", "lower", med(func(p pass) float64 { return 1e3 * p.EncodeS }))
	add("harness.peak_rss_mb", "MiB", "lower", peakRSSMB)
	add("runtime.gc_cpu_pct", "%", "lower", med(func(p pass) float64 { return p.GCCPUPct }))
	return out
}

// perLayerDefs lists every per-layer metric: host times, the other
// workload metrics, then the probes.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, m := range append(hostTime(nil), layerMetrics(nil, traced{}, 0)...) {
		defs = append(defs, m.metricDef)
	}
	for _, p := range probes {
		defs = append(defs, metricDef{Name: p.name, Unit: p.unit, Better: "lower"})
	}
	return defs
}

// tailPct is the highest of the usual percentiles that still has at least
// ten of n samples beyond it (50 when none has).
func tailPct(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile interpolates linearly between the closest ranks.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	r := p / 100 * float64(len(s)-1)
	i := int(r)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (r-float64(i))*(s[i+1]-s[i])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// medianOver is the median of f over the passes.
func medianOver(passes []pass, f func(pass) float64) float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = f(p)
	}
	return median(vs)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
