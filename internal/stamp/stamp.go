// Package stamp re-implements the STAMP benchmark applications the paper
// evaluates (§5): genome, intruder, kmeans (low/high), labyrinth, ssca2,
// and vacation (low/high). Bayes and yada are excluded, as in the paper.
//
// Each application preserves the original's algorithmic structure, shared
// data layout (with line-padded entry points), transaction boundaries and
// contention profile, scaled to simulator-sized inputs in the spirit of
// STAMP's own "-sim" configurations. All shared accesses go through the TM
// ABI; read-only inputs and thread-private scratch use plain accesses
// (DTMC's selective-annotation output).
package stamp

import (
	"fmt"

	"asfstack"
	"asfstack/internal/adaptive"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/topo"
	"asfstack/internal/txprof"
)

// Apps lists the benchmark configurations in the paper's figure order.
var Apps = []string{
	"genome", "intruder", "kmeans-low", "kmeans-high",
	"labyrinth", "ssca2", "vacation-low", "vacation-high",
}

// App is one STAMP application instance.
type App interface {
	// Name returns the figure label.
	Name() string
	// Setup builds the initial data set (direct, uninstrumented).
	// threads is the measured phase's worker count (for barriers).
	Setup(s *asfstack.Stack, tx tm.Tx, threads int)
	// Thread runs one worker's share of the measured phase.
	Thread(s *asfstack.Stack, c *sim.CPU, tid, threads int)
	// Validate checks application-level invariants after the run.
	Validate(tx tm.Tx) error
}

// Config describes one STAMP run.
type Config struct {
	App     string // one of Apps
	Runtime string // asfstack runtime label
	Threads int
	// Seed makes runs reproducible. Zero selects the default (42) unless
	// SeedSet marks it deliberate: seed 0 is a valid, distinct seed, not
	// an alias of the default.
	Seed    int64
	SeedSet bool
	// Scale multiplies the default input size (1.0 when zero); used by
	// tests to shrink runs.
	Scale float64
	// Native runs on the native-reference timing calibration instead of
	// the Barcelona simulator model (the Fig. 3 accuracy experiment).
	Native bool
	// Trace records sim trace events for the measured phase (Chrome trace
	// export). Off by default: event volume is proportional to work.
	Trace bool
	// Profile installs the transaction-level flight recorder and harvests
	// its profile into Result.Profile. Off by default.
	Profile bool
	// Topology is the socket layout ("2x8"; see internal/topo); empty runs
	// single-socket. When set, Threads must be zero (derived from the
	// topology) or equal its total.
	Topology string
}

// Result carries the measurements of a run.
type Result struct {
	Config    Config
	Cycles    uint64 // simulated duration of the measured phase
	Millis    float64
	Stats     tm.Stats
	Breakdown sim.Breakdown

	// Metrics is the full registry snapshot at the end of the measured
	// phase (every layer's instruments).
	Metrics *metrics.Snapshot
	// Switches is the adaptive selector's decision log when Runtime is one
	// of the Adaptive configurations; nil for the static runtimes.
	Switches []adaptive.Switch
	// TraceEvents are the measured phase's trace events when
	// Config.Trace was set; TraceStart is the phase's start cycle.
	TraceEvents []sim.TraceEvent
	TraceStart  uint64
	// Profile is the flight-recorder snapshot when Config.Profile was set
	// (and the runtime supports profiling); nil otherwise.
	Profile *txprof.Profile
}

// New instantiates an application by name.
func New(name string, threads int, scale float64) (App, error) {
	if scale <= 0 {
		scale = 1
	}
	switch name {
	case "genome":
		return newGenome(scale), nil
	case "intruder":
		return newIntruder(scale), nil
	case "kmeans-low":
		return newKMeans(scale, false), nil
	case "kmeans-high":
		return newKMeans(scale, true), nil
	case "labyrinth":
		return newLabyrinth(scale), nil
	case "ssca2":
		return newSSCA2(scale), nil
	case "vacation-low":
		return newVacation(scale, false), nil
	case "vacation-high":
		return newVacation(scale, true), nil
	default:
		return nil, fmt.Errorf("stamp: unknown app %q", name)
	}
}

// Run executes one configuration to completion and validates the result.
func Run(cfg Config) (Result, error) {
	if cfg.Seed == 0 && !cfg.SeedSet {
		cfg.Seed = 42
	}
	if cfg.Topology != "" {
		tp, err := topo.Parse(cfg.Topology)
		if err != nil {
			return Result{}, fmt.Errorf("stamp: %w", err)
		}
		if cfg.Threads != 0 && cfg.Threads != tp.Total() {
			return Result{}, fmt.Errorf("stamp: %d threads conflict with topology %s (%d cores)",
				cfg.Threads, tp, tp.Total())
		}
		cfg.Threads = tp.Total()
	}
	if cfg.Threads < 1 || cfg.Threads > sim.MaxCores {
		return Result{}, fmt.Errorf("stamp: %d threads out of range (want 1..%d)", cfg.Threads, sim.MaxCores)
	}
	app, err := New(cfg.App, cfg.Threads, cfg.Scale)
	if err != nil {
		return Result{}, err
	}
	// Set the seed on the machine config directly: asfstack.Options.Seed
	// treats zero as "keep the default", which would silently turn an
	// explicit seed 0 back into 42.
	mc := sim.Barcelona(cfg.Threads)
	if cfg.Native {
		mc = sim.NativeReference(cfg.Threads)
	}
	mc.Seed = cfg.Seed
	opts := asfstack.Options{
		Cores:    cfg.Threads,
		Runtime:  cfg.Runtime,
		Topology: cfg.Topology,
		Machine:  &mc,
		Profile:  cfg.Profile,
	}
	s := asfstack.New(opts)
	s.Setup(func(tx tm.Tx) { app.Setup(s, tx, cfg.Threads) })

	start := s.BeginMeasured()
	if cfg.Trace {
		s.M.EnableTrace()
	}

	end := s.Parallel(cfg.Threads, func(c *sim.CPU) {
		app.Thread(s, c, c.ID(), cfg.Threads)
	})

	res := Result{Config: cfg, Cycles: end - start}
	res.Millis = float64(res.Cycles) / 2_200_000.0
	res.Stats = s.TotalStats()
	for i := 0; i < cfg.Threads; i++ {
		res.Breakdown = res.Breakdown.Add(s.M.CPU(i).Counters())
	}
	res.Metrics = s.MetricsSnapshot()
	if s.ADAPT != nil {
		res.Switches = s.ADAPT.Switches()
	}
	if cfg.Trace {
		// Drain before validation runs more simulated work: the trace
		// should cover exactly the measured phase.
		res.TraceEvents = s.M.TraceEvents()
		res.TraceStart = start
	}
	res.Profile = s.TxProfile()

	var verr error
	s.Setup(func(tx tm.Tx) { verr = app.Validate(tx) })
	if verr != nil {
		return res, fmt.Errorf("stamp %s/%s/%d: validation: %w",
			cfg.App, cfg.Runtime, cfg.Threads, verr)
	}
	return res, nil
}
