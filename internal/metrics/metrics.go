// Package metrics is the observability spine of the TM stack: a fixed-shape,
// zero-allocation-on-hot-path metrics registry the simulator, the ASF
// facility, the TM runtimes and the experiment harness all report through.
//
// The design follows the paper's §5 discipline of keeping the statistics
// path out of the measured execution:
//
//   - every instrument is registered once, at stack-construction time, and
//     hands out an integer-indexed handle; the hot path is a bounds-checked
//     slice increment — no map lookups, no interface calls, no allocation;
//   - storage is keyed per simulated core, so recording never synchronises
//     (each core only ever touches its own slot, under the simulator's
//     global turn);
//   - instruments record *simulated* quantities only. Host-side facts
//     (wall-clock time, worker queues) are registered with the Host flag
//     and land in a separate section of every snapshot, so the simulated
//     section of two runs with different host parallelism is byte-identical
//     (the determinism guarantee TestParallelExperimentDeterminism pins);
//   - Snapshot returns a deep copy in registration order (which is itself
//     deterministic: registration happens during single-threaded stack
//     construction), and Reset re-arms everything at a measurement barrier.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Registry holds the instruments of one simulated machine. It is not safe
// for concurrent host-side use; in the stack it is only touched under the
// simulator's global turn or at measurement barriers.
type Registry struct {
	cores int

	counterDefs []def
	gaugeDefs   []def
	histDefs    []histDef

	counters [][]uint64 // [core][id]
	gauges   [][]uint64 // [core][id]
	hists    [][]hist   // [core][id]

	sealed bool
}

type def struct {
	name string
	host bool
}

type histDef struct {
	def
	bounds []uint64 // inclusive upper bounds; final +Inf bucket is implicit
}

// hist is one core's data for one histogram.
type hist struct {
	counts []uint64 // len(bounds)+1
	sum    uint64
	count  uint64
	max    uint64
}

// New builds a registry for a machine with the given core count.
func New(cores int) *Registry {
	if cores <= 0 {
		panic(fmt.Sprintf("metrics: bad core count %d", cores))
	}
	return &Registry{
		cores:    cores,
		counters: make([][]uint64, cores),
		gauges:   make([][]uint64, cores),
		hists:    make([][]hist, cores),
	}
}

func (r *Registry) checkReg(name string) {
	if r.sealed {
		panic(fmt.Sprintf("metrics: registering %q after first snapshot/record", name))
	}
	for _, d := range r.counterDefs {
		if d.name == name {
			panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
		}
	}
	for _, d := range r.gaugeDefs {
		if d.name == name {
			panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
		}
	}
	for _, d := range r.histDefs {
		if d.name == name {
			panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
		}
	}
}

// seal grows the per-core storage to match the registered instruments. It
// runs lazily on the first record or snapshot; registration is rejected
// afterwards so handles can never dangle.
func (r *Registry) seal() {
	if r.sealed {
		return
	}
	r.sealed = true
	for c := 0; c < r.cores; c++ {
		r.counters[c] = make([]uint64, len(r.counterDefs))
		r.gauges[c] = make([]uint64, len(r.gaugeDefs))
		r.hists[c] = make([]hist, len(r.histDefs))
		for i := range r.hists[c] {
			r.hists[c][i].counts = make([]uint64, len(r.histDefs[i].bounds)+1)
		}
	}
}

// Counter registers a monotonic per-core counter recording a simulated
// quantity.
func (r *Registry) Counter(name string) Counter {
	return r.counter(name, false)
}

// HostCounter registers a counter for host-side (non-deterministic)
// quantities; it appears only in the snapshot's host section.
func (r *Registry) HostCounter(name string) Counter {
	return r.counter(name, true)
}

func (r *Registry) counter(name string, host bool) Counter {
	r.checkReg(name)
	r.counterDefs = append(r.counterDefs, def{name: name, host: host})
	return Counter{r: r, id: len(r.counterDefs) - 1}
}

// Gauge registers a per-core gauge (set or high-water semantics).
func (r *Registry) Gauge(name string) Gauge {
	r.checkReg(name)
	r.gaugeDefs = append(r.gaugeDefs, def{name: name})
	return Gauge{r: r, id: len(r.gaugeDefs) - 1}
}

// Histogram registers a fixed-bucket per-core histogram. bounds are the
// inclusive upper bounds of the buckets, strictly increasing; an implicit
// overflow bucket catches everything above the last bound.
func (r *Registry) Histogram(name string, bounds []uint64) Histogram {
	r.checkReg(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %q: bucket bounds not strictly increasing", name))
		}
	}
	b := append([]uint64(nil), bounds...)
	r.histDefs = append(r.histDefs, histDef{def: def{name: name}, bounds: b})
	return Histogram{r: r, id: len(r.histDefs) - 1}
}

// PowersOfTwo returns histogram bounds 1, 2, 4, ... up to 2^(n-1) — the
// stock bucketing for set sizes and attempt counts.
func PowersOfTwo(n int) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		b[i] = 1 << uint(i)
	}
	return b
}

// Counter is a registered counter handle. The zero value is inert: every
// record on it is a no-op, so layers can be built with metrics disabled.
type Counter struct {
	r  *Registry
	id int
}

// Add adds v on the given core.
func (c Counter) Add(core int, v uint64) {
	if c.r == nil {
		return
	}
	c.r.seal()
	c.r.counters[core][c.id] += v
}

// Inc adds one on the given core.
func (c Counter) Inc(core int) { c.Add(core, 1) }

// Gauge is a registered gauge handle. The zero value is inert.
type Gauge struct {
	r  *Registry
	id int
}

// Set stores v on the given core.
func (g Gauge) Set(core int, v uint64) {
	if g.r == nil {
		return
	}
	g.r.seal()
	g.r.gauges[core][g.id] = v
}

// High raises the gauge to v if v is larger (high-water-mark semantics).
func (g Gauge) High(core int, v uint64) {
	if g.r == nil {
		return
	}
	g.r.seal()
	if v > g.r.gauges[core][g.id] {
		g.r.gauges[core][g.id] = v
	}
}

// Histogram is a registered histogram handle. The zero value is inert.
type Histogram struct {
	r  *Registry
	id int
}

// Observe records v on the given core.
func (h Histogram) Observe(core int, v uint64) {
	if h.r == nil {
		return
	}
	h.r.seal()
	hd := &h.r.histDefs[h.id]
	st := &h.r.hists[core][h.id]
	i := sort.Search(len(hd.bounds), func(i int) bool { return hd.bounds[i] >= v })
	st.counts[i]++
	st.sum += v
	st.count++
	if v > st.max {
		st.max = v
	}
}

// Reset zeroes every instrument on every core (measurement barrier).
func (r *Registry) Reset() {
	r.seal()
	for c := 0; c < r.cores; c++ {
		clear(r.counters[c])
		clear(r.gauges[c])
		for i := range r.hists[c] {
			h := &r.hists[c][i]
			clear(h.counts)
			h.sum, h.count, h.max = 0, 0, 0
		}
	}
}

// --- snapshots -----------------------------------------------------------

// Snapshot is a deep, JSON-ready copy of a registry's state, split into a
// deterministic simulated section (Sim) and a host section (Host). The
// simulated section of two runs of the same configuration is identical
// regardless of host scheduling or worker counts.
type Snapshot struct {
	Cores int     `json:"cores"`
	Sim   Section `json:"sim"`
	Host  Section `json:"host,omitempty"`
}

// Section is one side (simulated or host) of a snapshot.
type Section struct {
	Counters   []CounterSnap `json:"counters,omitempty"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
}

// CounterSnap is one counter's values.
type CounterSnap struct {
	Name    string   `json:"name"`
	PerCore []uint64 `json:"per_core"`
	Total   uint64   `json:"total"`
}

// GaugeSnap is one gauge's values. Total is the per-core sum — meaningful
// for barrier-filled counters routed through gauges, advisory for true
// level gauges.
type GaugeSnap struct {
	Name    string   `json:"name"`
	PerCore []uint64 `json:"per_core"`
	Total   uint64   `json:"total"`
}

// HistSnap is one histogram's merged and per-core state.
type HistSnap struct {
	Name    string     `json:"name"`
	Bounds  []uint64   `json:"bounds"` // inclusive upper bounds; last bucket is overflow
	PerCore [][]uint64 `json:"per_core"`
	Counts  []uint64   `json:"counts"` // merged across cores
	Sum     uint64     `json:"sum"`
	Count   uint64     `json:"count"`
	Max     uint64     `json:"max"`
}

// Quantile estimates the p-quantile (0 < p ≤ 1) of the histogram from its
// bucket counts. Within the bucket holding the target rank it interpolates
// log-linearly — latency histograms use geometric (powers-of-two) bounds,
// where log-space interpolation is unbiased; the first bucket (lower edge
// 0) degrades to linear. The overflow bucket's upper edge is the observed
// Max. Returns 0 on an empty histogram; p outside (0,1] clamps.
func (h HistSnap) Quantile(p float64) float64 {
	if h.Count == 0 || p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(h.Count)
	var cum uint64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		if float64(cum)+float64(n) >= target {
			var lo, hi float64
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			if i < len(h.Bounds) {
				hi = float64(h.Bounds[i])
			} else {
				hi = float64(h.Max)
				if hi < lo {
					hi = lo
				}
			}
			frac := (target - float64(cum)) / float64(n)
			var q float64
			if lo <= 0 {
				q = lo + (hi-lo)*frac
			} else {
				q = lo * math.Pow(hi/lo, frac)
			}
			// No observation exceeds Max, so neither can a quantile —
			// relevant when Max sits below its bucket's upper bound.
			if max := float64(h.Max); q > max {
				q = max
			}
			return q
		}
		cum += n
	}
	return float64(h.Max)
}

// Snapshot deep-copies the registry state in registration order.
func (r *Registry) Snapshot() *Snapshot {
	r.seal()
	s := &Snapshot{Cores: r.cores}
	for id, d := range r.counterDefs {
		cs := CounterSnap{Name: d.name, PerCore: make([]uint64, r.cores)}
		for c := 0; c < r.cores; c++ {
			cs.PerCore[c] = r.counters[c][id]
			cs.Total += r.counters[c][id]
		}
		if d.host {
			s.Host.Counters = append(s.Host.Counters, cs)
		} else {
			s.Sim.Counters = append(s.Sim.Counters, cs)
		}
	}
	for id, d := range r.gaugeDefs {
		gs := GaugeSnap{Name: d.name, PerCore: make([]uint64, r.cores)}
		for c := 0; c < r.cores; c++ {
			gs.PerCore[c] = r.gauges[c][id]
			gs.Total += r.gauges[c][id]
		}
		s.Sim.Gauges = append(s.Sim.Gauges, gs)
	}
	for id, d := range r.histDefs {
		hs := HistSnap{
			Name:    d.name,
			Bounds:  append([]uint64(nil), d.bounds...),
			PerCore: make([][]uint64, r.cores),
			Counts:  make([]uint64, len(d.bounds)+1),
		}
		for c := 0; c < r.cores; c++ {
			st := &r.hists[c][id]
			hs.PerCore[c] = append([]uint64(nil), st.counts...)
			for i, n := range st.counts {
				hs.Counts[i] += n
			}
			hs.Sum += st.sum
			hs.Count += st.count
			if st.max > hs.Max {
				hs.Max = st.max
			}
		}
		s.Sim.Histograms = append(s.Sim.Histograms, hs)
	}
	return s
}

// Counter returns the named counter snapshot from the simulated section.
func (s *Snapshot) Counter(name string) (CounterSnap, bool) {
	for _, c := range s.Sim.Counters {
		if c.Name == name {
			return c, true
		}
	}
	return CounterSnap{}, false
}

// Gauge returns the named gauge snapshot from the simulated section.
func (s *Snapshot) Gauge(name string) (GaugeSnap, bool) {
	for _, g := range s.Sim.Gauges {
		if g.Name == name {
			return g, true
		}
	}
	return GaugeSnap{}, false
}

// Histogram returns the named histogram snapshot.
func (s *Snapshot) Histogram(name string) (HistSnap, bool) {
	for _, h := range s.Sim.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnap{}, false
}
