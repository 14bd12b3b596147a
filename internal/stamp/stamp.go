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
	"math"

	"asfstack"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
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
	// Thread runs one worker's share of the measured phase. It builds
	// each of its atomic bodies once, before its loops, over slot
	// variables the loops fill before each s.Atomic call. Every runtime
	// returns from Atomic only after the body's final execution and
	// re-runs the same func value on retry, so each execution reads the
	// slots of its own operation, and the loops allocate nothing per
	// transaction.
	Thread(s *asfstack.Stack, c *sim.CPU, tid, threads int)
	// Validate checks application-level invariants after the run.
	Validate(tx tm.Tx) error
}

// Config describes one STAMP run: the machine spec plus the application.
// The Fig. 3 accuracy experiment sets Machine to sim.NativeReference.
type Config struct {
	asfstack.Options
	App string // one of Apps
	// Scale multiplies the default input size (1.0 when zero); used by
	// tests to shrink runs.
	Scale float64
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
// A negative or non-finite Scale is an error.
func Run(cfg Config) (asfstack.RunResult, error) {
	if cfg.Scale < 0 || math.IsNaN(cfg.Scale) || math.IsInf(cfg.Scale, 0) {
		return asfstack.RunResult{}, fmt.Errorf("stamp: scale %v: want a finite number >= 0 (0 = 1.0)", cfg.Scale)
	}
	s, err := asfstack.Build(cfg.Options)
	if err != nil {
		return asfstack.RunResult{}, err
	}
	defer s.Release()
	// The app sizes its threads by the machine's resolved core count.
	cfg.Options = s.Opts
	app, err := New(cfg.App, cfg.Cores, cfg.Scale)
	if err != nil {
		return asfstack.RunResult{}, err
	}
	s.Setup(func(tx tm.Tx) { app.Setup(s, tx, cfg.Cores) })
	res := s.Measure(func(c *sim.CPU, _ uint64) {
		app.Thread(s, c, c.ID(), cfg.Cores)
	})

	var verr error
	s.Setup(func(tx tm.Tx) { verr = app.Validate(tx) })
	if verr != nil {
		return res, fmt.Errorf("stamp %s/%s/%d: validation: %w",
			cfg.App, cfg.Runtime, cfg.Cores, verr)
	}
	return res, nil
}
