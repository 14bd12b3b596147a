// Package asfstack assembles the complete transactional memory stack the
// paper evaluates: the simulated multicore machine (package sim), AMD's
// Advanced Synchronization Facility (package asf), the ASF-TM runtime
// (package asftm) with its serial-irrevocable fallback, the TinySTM
// baseline (package stm), and the uninstrumented sequential baseline
// (package seq) — all behind the portable TM ABI of package tm.
//
// A Stack is one configured machine plus one TM runtime. Programs are
// thread bodies that run atomic blocks:
//
//	s := asfstack.New(asfstack.Options{Cores: 4, Runtime: "LLB-256"})
//	ctr := s.AllocShared(8)
//	s.Parallel(4, func(c *sim.CPU) {
//	    inc := func(tx tm.Tx) { tx.Store(ctr, tx.Load(ctr)+1) }
//	    for i := 0; i < 1000; i++ {
//	        s.Atomic(c, inc)
//	    }
//	})
//
// Each core builds its atomic bodies once, before its loop: a body passed to
// Atomic escapes to the heap, so a func literal inside the loop would cost
// one allocation per block.
package asfstack

import (
	"fmt"
	"strings"

	"asfstack/internal/adaptive"
	"asfstack/internal/asf"
	"asfstack/internal/asftm"
	"asfstack/internal/cohorts"
	"asfstack/internal/hytm"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/seq"
	"asfstack/internal/sim"
	"asfstack/internal/stm"
	"asfstack/internal/tm"
	"asfstack/internal/topo"
	"asfstack/internal/trace"
	"asfstack/internal/txprof"
)

// RuntimeNames lists the accepted Options.Runtime values, in the order the
// paper's figures use them.
var RuntimeNames = []string{
	"LLB-8", "LLB-256", "LLB-8 w/ L1", "LLB-256 w/ L1", "STM",
	"HyTM-8", "HyTM-256", "Cohorts", "Cohorts-turbo",
	"Adaptive-8", "Adaptive-256", "Sequential",
}

// Options is the machine spec: the one description of a simulated machine
// and its runtime. Every workload config embeds it, and Build alone turns it
// into a Stack.
type Options struct {
	// Cores is the number of simulated cores, 1..sim.MaxCores (the paper's
	// machine has 8). With a Topology it may be left zero.
	Cores int
	// Runtime selects the TM implementation by figure label: one of
	// RuntimeNames.
	Runtime string
	// Seed makes runs reproducible. Zero keeps the machine's default (42)
	// unless SeedSet marks it deliberate: seed 0 is a valid, distinct seed,
	// not an alias of the default.
	Seed    int64
	SeedSet bool
	// HeapPerCore sizes each core's allocation arena in bytes
	// (default 64 MiB).
	HeapPerCore uint64
	// Topology selects the socket layout ("2x8": two sockets of eight
	// cores, per-socket L3 slices, cross-socket hop latency; see
	// internal/topo). Empty keeps the single-socket machine. When set,
	// Cores must be zero or equal the topology's total; it takes
	// precedence over any topology in Machine.
	Topology string
	// Machine, if non-nil, overrides the default Barcelona configuration
	// (Cores, Seed and Topology above still apply).
	Machine *sim.Config
	// Trace records the measured phase as a trace.Run: category switches
	// plus every transaction event (Measure returns it). Off by default:
	// event volume is proportional to work.
	Trace bool
	// Profile installs the transaction-level flight recorder
	// (internal/txprof) on the selected runtime. Off by default: the
	// disabled path costs one nil check per would-be event.
	Profile bool
}

// Stack is one simulated machine with one TM runtime installed.
type Stack struct {
	M      *sim.Machine
	Layout *mem.Layout
	Heap   *tm.Heap
	// ASF is the installed ASF system, or nil for the STM, Cohorts and
	// sequential runtimes (which run on the bare machine).
	ASF *asf.System
	// ADAPT is the online runtime selector when Runtime is "Adaptive-8",
	// "Adaptive-256" (or the "adaptive" alias), else nil.
	ADAPT *adaptive.Runtime
	// RT is the selected runtime behind the portable ABI.
	RT tm.Runtime
	// Metrics is the stack-wide registry: every layer registers its
	// instruments here during construction, keyed per core. Snapshot via
	// MetricsSnapshot, which enforces barrier semantics.
	Metrics *metrics.Registry
	// Prof is the transaction-level flight recorder when Options.Profile
	// was set (and the selected runtime supports profiling), else nil.
	// Snapshot via TxProfile, which enforces barrier semantics.
	Prof *txprof.Recorder
	// Opts is the spec the stack was built from, resolved: Cores is the
	// machine's core count and Seed its seed.
	Opts Options

	run    *trace.Run // the traced measured phase, when Options.Trace
	gauges stackGauges
}

// stackGauges holds the fill-at-barrier handles for quantities other layers
// already count in their own structs (sim cycle breakdown, cache statistics,
// tm outcome counters). They are copied into the registry at snapshot time
// rather than maintained on the hot path.
type stackGauges struct {
	simCycles [sim.NumCategories]metrics.Gauge

	loads, stores          metrics.Gauge
	l1Hits, l2Hits, l3Hits metrics.Gauge
	c2c, memFills          metrics.Gauge
	tlb1Miss, tlbWalks     metrics.Gauge
	evictions              metrics.Gauge
	l1Resident, l2Resident metrics.Gauge
	xsockHops, l3Remote    metrics.Gauge

	tmCommits, tmSerial metrics.Gauge
	tmAborts            [sim.NumAbortReasons]metrics.Gauge
	tmMallocAborts      metrics.Gauge
	tmSTMAborts         metrics.Gauge
	tmSWCommits         metrics.Gauge
	tmSeqAborts         metrics.Gauge
	tmSeals             metrics.Gauge
}

func (g *stackGauges) register(reg *metrics.Registry) {
	for k := 0; k < sim.NumCategories; k++ {
		g.simCycles[k] = reg.Gauge("sim/cycles/" + sim.Category(k).String())
	}
	g.loads = reg.Gauge("cache/loads")
	g.stores = reg.Gauge("cache/stores")
	g.l1Hits = reg.Gauge("cache/l1_hits")
	g.l2Hits = reg.Gauge("cache/l2_hits")
	g.l3Hits = reg.Gauge("cache/l3_hits")
	g.c2c = reg.Gauge("cache/c2c_transfers")
	g.memFills = reg.Gauge("cache/mem_fills")
	g.tlb1Miss = reg.Gauge("cache/tlb1_misses")
	g.tlbWalks = reg.Gauge("cache/tlb_walks")
	g.evictions = reg.Gauge("cache/evictions")
	g.l1Resident = reg.Gauge("cache/l1_resident_lines")
	g.l2Resident = reg.Gauge("cache/l2_resident_lines")
	g.xsockHops = reg.Gauge("cache/xsock_hops")
	g.l3Remote = reg.Gauge("cache/l3_remote_hits")

	g.tmCommits = reg.Gauge("tm/commits")
	g.tmSerial = reg.Gauge("tm/serial")
	for r := 1; r < sim.NumAbortReasons; r++ { // skip AbortNone
		g.tmAborts[r] = reg.Gauge("tm/aborts/" + sim.AbortReason(r).String())
	}
	g.tmMallocAborts = reg.Gauge("tm/malloc_aborts")
	g.tmSTMAborts = reg.Gauge("tm/stm_aborts")
	g.tmSWCommits = reg.Gauge("tm/sw_commits")
	g.tmSeqAborts = reg.Gauge("tm/seq_aborts")
	g.tmSeals = reg.Gauge("tm/cohort_seals")
}

// Build turns a spec into a stack: it resolves the core count against the
// topology, checks it against 1..sim.MaxCores, builds the machine and
// installs the runtime. A bad spec — malformed topology, core count out of
// range, cache geometry the hierarchy cannot build, heaps that would cross
// mem.MaxAddr, unknown runtime — is an error.
func Build(opts Options) (*Stack, error) {
	var tp topo.Topology
	if opts.Topology != "" {
		var err error
		if tp, err = topo.Parse(opts.Topology); err != nil {
			return nil, fmt.Errorf("asfstack: %w", err)
		}
		if opts.Cores != 0 && opts.Cores != tp.Total() {
			return nil, fmt.Errorf("asfstack: %d cores conflict with topology %s (%d cores)",
				opts.Cores, tp, tp.Total())
		}
		opts.Cores = tp.Total()
	}
	if opts.Cores < 1 || opts.Cores > sim.MaxCores {
		return nil, fmt.Errorf("asfstack: %d cores out of range (want 1..%d)", opts.Cores, sim.MaxCores)
	}
	if opts.HeapPerCore == 0 {
		opts.HeapPerCore = 64 << 20
	}
	if limit := maxHeapPerCore(opts.Cores); opts.HeapPerCore > limit {
		return nil, fmt.Errorf("asfstack: %d bytes of heap per core on %d cores cross mem.MaxAddr (at most %d per core)",
			opts.HeapPerCore, opts.Cores, limit)
	}
	cfg := sim.Barcelona(opts.Cores)
	if opts.Machine != nil {
		cfg = *opts.Machine
		cfg.Cores = opts.Cores
	}
	if err := cfg.Cache.Validate(); err != nil {
		return nil, fmt.Errorf("asfstack: %w", err)
	}
	if !tp.IsZero() {
		cfg.Topology = tp
	}
	if opts.Seed != 0 || opts.SeedSet {
		cfg.Seed = opts.Seed
	}
	opts.Seed = cfg.Seed
	m := sim.New(cfg)
	layout := mem.NewLayout(mem.PageSize) // skip page zero
	heap := tm.NewHeap(m.Mem, layout, opts.Cores, opts.HeapPerCore)

	s := &Stack{M: m, Layout: layout, Heap: heap, Metrics: metrics.New(opts.Cores), Opts: opts}
	s.gauges.register(s.Metrics)
	switch opts.Runtime {
	case "STM":
		rt := stm.New(m, heap, layout)
		rt.SetMetrics(s.Metrics)
		s.RT = rt
	case "Sequential", "":
		s.RT = seq.New(m, heap)
	case "HyTM-8", "HyTM-256":
		// The hybrid runtime runs on the same ASF hardware variants as
		// ASF-TM; the label selects the LLB size.
		v := asf.LLB8
		if opts.Runtime == "HyTM-256" {
			v = asf.LLB256
		}
		s.ASF = asf.Install(m, v)
		s.ASF.SetMetrics(s.Metrics)
		rt := hytm.New(s.ASF, heap, m, layout, opts.Runtime)
		rt.SetMetrics(s.Metrics)
		s.RT = rt
	case "Cohorts", "Cohorts-turbo":
		rt := cohorts.New(m, heap, layout, opts.Runtime == "Cohorts-turbo")
		rt.SetMetrics(s.Metrics)
		s.RT = rt
	case "Adaptive-8", "Adaptive-256", "adaptive":
		// The selector owns one instance of every runtime over the same
		// machine, heap, and ASF system, and switches the active one at
		// quiescent points ("adaptive" is the LLB-8 alias).
		v, hname := asf.LLB8, "HyTM-8"
		if opts.Runtime == "Adaptive-256" {
			v, hname = asf.LLB256, "HyTM-256"
		}
		s.ASF = asf.Install(m, v)
		s.ASF.SetMetrics(s.Metrics)
		at := asftm.New(s.ASF, heap, m, layout)
		at.SetMetrics(s.Metrics)
		ht := hytm.New(s.ASF, heap, m, layout, hname)
		ht.SetMetrics(s.Metrics)
		st := stm.New(m, heap, layout)
		st.SetMetrics(s.Metrics)
		ct := cohorts.New(m, heap, layout, true)
		ct.SetMetrics(s.Metrics)
		name := opts.Runtime
		if name == "adaptive" {
			name = "Adaptive-8"
		}
		s.ADAPT = adaptive.New(m, layout, name, [adaptive.NumModes]tm.Runtime{
			adaptive.ModeASFTM:   at,
			adaptive.ModeHyTM:    ht,
			adaptive.ModeSTM:     st,
			adaptive.ModeCohorts: ct,
		})
		s.ADAPT.SetMetrics(s.Metrics)
		s.RT = s.ADAPT
	default:
		v, err := asf.VariantByName(opts.Runtime)
		if err != nil {
			return nil, fmt.Errorf("asfstack: unknown runtime %q (want one of %s)",
				opts.Runtime, strings.Join(RuntimeNames, ", "))
		}
		s.ASF = asf.Install(m, v)
		s.ASF.SetMetrics(s.Metrics)
		rt := asftm.New(s.ASF, heap, m, layout)
		rt.SetMetrics(s.Metrics)
		s.RT = rt
	}
	if _, ok := s.RT.(tm.ProfilableRuntime); ok && opts.Profile {
		s.Prof = txprof.NewRecorder(opts.Cores, 0)
	}
	s.installProfiler()
	return s, nil
}

// metaReserve is the address space Build keeps above the heaps for the
// runtimes' metadata regions (the STM lock array, per-core logs), which
// take tens of MiB at 64 cores.
const metaReserve = 1 << 40

// maxHeapPerCore is the largest HeapPerCore whose page-aligned regions, laid
// out from page one and followed by metaReserve, stay below mem.MaxAddr.
func maxHeapPerCore(cores int) uint64 {
	room := uint64(mem.MaxAddr) - mem.PageSize - metaReserve
	return room / uint64(cores) &^ (mem.PageSize - 1)
}

// installProfiler hands the runtime its transaction-event sinks: the flight
// recorder and the traced run, whichever exist.
func (s *Stack) installProfiler() {
	p, ok := s.RT.(tm.ProfilableRuntime)
	if !ok {
		return
	}
	var sinks []tm.TxProfiler
	if s.Prof != nil {
		sinks = append(sinks, s.Prof)
	}
	if s.run != nil {
		sinks = append(sinks, s.run)
	}
	p.SetProfiler(tm.Tee(sinks...))
}

// New is Build for specs known to be good: it panics on Build's error.
func New(opts Options) *Stack {
	s, err := Build(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// AllocShared allocates size bytes of prefaulted shared memory for initial
// data (setup phase; charges no cycles). The allocation is padded to whole
// cache lines, the paper's anti-false-sharing discipline for the entry
// points of the main data structures.
func (s *Stack) AllocShared(size uint64) mem.Addr {
	a := s.Heap.SetupAlloc(0, alignUp(size, mem.LineSize), mem.LineSize)
	return a
}

// Parallel runs one thread body on each of n cores to completion and
// returns the simulated duration in cycles. Each thread announces a final
// quiescent state on exit (CPU.IdleHint), so a runtime tracking per-core
// liveness — the adaptive selector's switch gate — never waits on a core
// that has left the region.
func (s *Stack) Parallel(n int, body func(c *sim.CPU)) uint64 {
	bodies := make([]func(*sim.CPU), n)
	for i := range bodies {
		bodies[i] = func(c *sim.CPU) {
			body(c)
			c.IdleHint()
		}
	}
	return s.M.Run(bodies...)
}

// Setup runs body on core 0 with a direct (uninstrumented, plain-access)
// transaction handle — for building initial data sets before the measured
// phase. Simulated time advances but is outside any measurement window.
func (s *Stack) Setup(body func(tx tm.Tx)) {
	s.M.Run(func(c *sim.CPU) {
		body(tm.Direct(c, s.Heap))
	})
}

// BeginMeasured marks the boundary between setup and the measured phase:
// core clocks are aligned, private caches are flushed to L3 (the state at
// PTLsim's native-to-simulated switchover), all statistics are reset, and
// a fresh trace.Run starts recording when Options.Trace is set. It returns
// the common start time in cycles.
func (s *Stack) BeginMeasured() uint64 {
	for i := 0; i < s.Opts.Cores; i++ {
		s.M.Hier.FlushPrivate(i)
		s.M.Hier.FlushTLB(i)
	}
	start := s.M.SyncClocks()
	s.M.ResetAllCounters()
	s.RT.ResetStats()
	s.Metrics.Reset()
	if s.Prof != nil {
		s.Prof.Reset()
	}
	if s.Opts.Trace {
		s.M.EnableTrace()
		s.M.TraceEvents() // drop anything recorded before the phase
		s.run = trace.NewRun(s.Opts.Cores, start)
		s.installProfiler()
	}
	return start
}

// RunResult is what one measured phase produced. Every workload result
// embeds it, and the harness records it as a cell's sim section.
type RunResult struct {
	Cycles    uint64        // simulated duration of the measured phase
	Stats     tm.Stats      // the runtime's outcome counters, summed over cores
	Breakdown sim.Breakdown // per-category cycles, summed over cores

	// Metrics is the full registry snapshot at the end of the measured
	// phase (every layer's instruments).
	Metrics *metrics.Snapshot
	// Switches is the adaptive selector's decision log when Runtime is one
	// of the Adaptive configurations; nil for the static runtimes.
	Switches []adaptive.Switch
	// Trace is the traced measured phase when Options.Trace was set; nil
	// otherwise.
	Trace *trace.Run
	// Profile is the flight-recorder snapshot when Options.Profile was set
	// (and the runtime supports profiling); nil otherwise.
	Profile *txprof.Profile
}

// Millis returns the measured phase's simulated duration in milliseconds
// at the 2.2 GHz clock.
func (r RunResult) Millis() float64 { return float64(r.Cycles) / 2_200_000.0 }

// Measure runs the measured phase: BeginMeasured, then body on every core
// (start is the phase's common start cycle), then the harvest of its
// measurements at the closing barrier.
func (s *Stack) Measure(body func(c *sim.CPU, start uint64)) RunResult {
	start := s.BeginMeasured()
	end := s.Parallel(s.Opts.Cores, func(c *sim.CPU) { body(c, start) })
	r := RunResult{Cycles: end - start, Stats: s.TotalStats()}
	for i := 0; i < s.Opts.Cores; i++ {
		r.Breakdown = r.Breakdown.Add(s.M.CPU(i).Counters())
	}
	r.Metrics = s.MetricsSnapshot()
	if s.ADAPT != nil {
		r.Switches = s.ADAPT.Switches()
	}
	if s.run != nil {
		// Detach the run so it holds the measured phase only.
		s.run.Events = s.M.TraceEvents()
		r.Trace, s.run = s.run, nil
		s.installProfiler()
	}
	r.Profile = s.TxProfile()
	return r
}

// TxProfile snapshots the flight recorder into its serialized form, or
// returns nil when Options.Profile was off. Barrier-only, like
// MetricsSnapshot.
func (s *Stack) TxProfile() *txprof.Profile {
	if s.Prof == nil {
		return nil
	}
	if s.M.Running() {
		panic("asfstack: TxProfile while the machine is running; profiles are barrier-only")
	}
	return s.Prof.Profile()
}

// fillGauges copies the sim, cache, and tm counters into the registry's
// gauges. Only valid at a barrier.
func (s *Stack) fillGauges() {
	for i := 0; i < s.M.Config().Cores; i++ {
		b := s.M.CPU(i).Counters()
		for k := 0; k < sim.NumCategories; k++ {
			s.gauges.simCycles[k].Set(i, b[k])
		}
		cs := s.M.Hier.Stats(i)
		s.gauges.loads.Set(i, cs.Loads)
		s.gauges.stores.Set(i, cs.Stores)
		s.gauges.l1Hits.Set(i, cs.L1Hits)
		s.gauges.l2Hits.Set(i, cs.L2Hits)
		s.gauges.l3Hits.Set(i, cs.L3Hits)
		s.gauges.c2c.Set(i, cs.C2C)
		s.gauges.memFills.Set(i, cs.MemFills)
		s.gauges.tlb1Miss.Set(i, cs.TLB1Miss)
		s.gauges.tlbWalks.Set(i, cs.TLBWalks)
		s.gauges.evictions.Set(i, cs.Evictions)
		l1, l2 := s.M.Hier.Occupancy(i)
		s.gauges.l1Resident.Set(i, uint64(l1))
		s.gauges.l2Resident.Set(i, uint64(l2))
		s.gauges.xsockHops.Set(i, cs.XSockHops)
		s.gauges.l3Remote.Set(i, cs.L3RemoteHits)

		st := s.RT.Stats(i)
		s.gauges.tmCommits.Set(i, st.Commits)
		s.gauges.tmSerial.Set(i, st.Serial)
		for r := 1; r < sim.NumAbortReasons; r++ {
			s.gauges.tmAborts[r].Set(i, st.Aborts[r])
		}
		s.gauges.tmMallocAborts.Set(i, st.MallocAborts)
		s.gauges.tmSTMAborts.Set(i, st.STMAborts)
		s.gauges.tmSWCommits.Set(i, st.SWCommits)
		s.gauges.tmSeqAborts.Set(i, st.SeqAborts)
		s.gauges.tmSeals.Set(i, st.Seals)
	}
}

// MetricsSnapshot fills the barrier gauges and returns a deterministic
// snapshot of every registered instrument. It panics if called while the
// machine is running: metric state is only coherent between Run calls.
func (s *Stack) MetricsSnapshot() *metrics.Snapshot {
	if s.M.Running() {
		panic("asfstack: MetricsSnapshot while the machine is running; snapshots are barrier-only")
	}
	s.fillGauges()
	return s.Metrics.Snapshot()
}

// Atomic is shorthand for s.RT.Atomic.
func (s *Stack) Atomic(c *sim.CPU, body func(tx tm.Tx)) { s.RT.Atomic(c, body) }

// TotalStats sums the runtime's per-core statistics. Like MetricsSnapshot it
// is barrier-only: the per-core counters are written by core goroutines
// without synchronisation while a Run call is in flight.
func (s *Stack) TotalStats() tm.Stats {
	if s.M.Running() {
		panic("asfstack: TotalStats while the machine is running; stats are barrier-only")
	}
	var t tm.Stats
	for i := 0; i < s.M.Config().Cores; i++ {
		t.Add(s.RT.Stats(i))
	}
	return t
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
