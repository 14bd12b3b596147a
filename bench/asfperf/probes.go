package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"asfstack"
	"asfstack/internal/asf"
	"asfstack/internal/cache"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// probe times calls into one layer's public functions. prepare builds the
// probe's state for n operations per run and returns one timed run, which
// reports the cost per operation in the probe's unit, or an error when the
// operations did not take the path the probe is named for.
type probe struct {
	name, unit string
	prepare    func(seed int64, n int) (func() (float64, error), error)
}

// probeOps is the operation count of one probe run: long enough that timer
// resolution does not matter, short enough that all probes take seconds.
const probeOps = 200_000

var probes = []probe{
	{"sim.run_ns_per_op.c1", "ns", simRun(1)},
	{"sim.run_ns_per_op.c8", "ns", simRun(8)},
	{"sim.run_ns_per_op.c64", "ns", simRun(64)},
	{"cache.access_ns.l1_hit", "ns", l1Hit},
	{"cache.access_ns.l2_hit", "ns", l2Hit},
	{"cache.access_ns.mem_fill", "ns", memFill},
	{"cache.access_ns.c2c", "ns", transfer(1)},
	{"cache.access_ns.xsock", "ns", transfer(2)},
	{"asf.region_ns.commit", "ns", asfRegion(false)},
	{"asf.region_ns.rollback", "ns", asfRegion(true)},
	{"tm.atomic_ns.LLB-256", "ns", atomic("LLB-256")},
	{"tm.atomic_ns.HyTM-256", "ns", atomic("HyTM-256")},
	{"tm.atomic_ns.STM", "ns", atomic("STM")},
	{"tm.atomic_ns.Cohorts-turbo", "ns", atomic("Cohorts-turbo")},
	{"tm.atomic_ns.Adaptive-256", "ns", atomic("Adaptive-256")},
	{"stack.new_ms.c8", "ms", stackNew(asfstack.Options{Cores: 8, Runtime: "LLB-256"})},
	{"stack.new_ms.4x16", "ms", stackNew(asfstack.Options{Topology: "4x16", Runtime: "LLB-256"})},
}

// runProbes runs every probe: one warm-up run, then the median of five.
func runProbes(seed int64, n int) ([]metric, error) {
	var out []metric
	for _, p := range probes {
		run, err := p.prepare(seed, n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		vs := make([]float64, 6)
		for i := range vs {
			runtime.GC()
			if vs[i], err = run(); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
		}
		out = append(out, metric{metricDef{Name: p.name, Unit: p.unit, Better: "lower"}, median(vs[1:])})
	}
	return out, nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// simRun times sim.Machine.Run on bodies that issue L1-resident loads: the
// turn hand-off between cores plus the L1-hit path.
func simRun(cores int) func(int64, int) (func() (float64, error), error) {
	return func(seed int64, n int) (func() (float64, error), error) {
		cfg := sim.Barcelona(cores)
		cfg.Seed = seed
		m := sim.New(cfg)
		m.Mem.Prefault(0, uint64(cores)*mem.PageSize)
		per := n / cores
		bodies := make([]func(*sim.CPU), cores)
		for i := range bodies {
			bodies[i] = func(c *sim.CPU) {
				base := mem.Addr(c.ID() * mem.PageSize)
				for j := 0; j < per; j++ {
					c.Load(base + mem.Addr(j%32*mem.LineSize))
				}
			}
		}
		hits := func() (h uint64) {
			for i := 0; i < cores; i++ {
				h += m.Hier.Stats(i).L1Hits
			}
			return h
		}
		m.Run(bodies...) // fills each core's lines
		return func() (float64, error) {
			h0 := hits()
			t := time.Now()
			m.Run(bodies...)
			d := time.Since(t)
			if got := hits() - h0; got != uint64(per*cores) {
				return 0, fmt.Errorf("%d of %d loads hit L1", got, per*cores)
			}
			return perOp(d, per*cores), nil
		}, nil
	}
}

// accessRun times n calls of access and checks that counter grew by n.
func accessRun(h *cache.Hierarchy, n int, access func(i int), counter func(cache.Stats) uint64) func() (float64, error) {
	return func() (float64, error) {
		c0 := counter(h.Stats(0))
		t := time.Now()
		for i := 0; i < n; i++ {
			access(i)
		}
		d := time.Since(t)
		if got := counter(h.Stats(0)) - c0; got != uint64(n) {
			return 0, fmt.Errorf("%d of %d accesses took the probed path", got, n)
		}
		return perOp(d, n), nil
	}
}

// l1Hit loads 16 lines, filled before timing, in turn.
func l1Hit(_ int64, n int) (func() (float64, error), error) {
	h := cache.New(1, cache.Barcelona())
	for i := 0; i < 16; i++ {
		h.Access(0, mem.Addr(i*mem.LineSize), false)
	}
	return accessRun(h, n, func(i int) { h.Access(0, mem.Addr(i%16*mem.LineSize), false) },
		func(s cache.Stats) uint64 { return s.L1Hits }), nil
}

// l2Hit cycles through 4096 lines (256 KiB) in a seeded order: too many
// for the 2-way L1, few enough for the L2, so every load misses L1 and
// hits L2.
func l2Hit(seed int64, n int) (func() (float64, error), error) {
	const lines = 4096
	h := cache.New(1, cache.Barcelona())
	order := rand.New(rand.NewSource(seed)).Perm(lines)
	for _, l := range order {
		h.Access(0, mem.Addr(l*mem.LineSize), false)
	}
	pos := 0
	return accessRun(h, n, func(int) {
		h.Access(0, mem.Addr(order[pos%lines]*mem.LineSize), false)
		pos++
	}, func(s cache.Stats) uint64 { return s.L2Hits }), nil
}

// memFill loads lines never touched before, in a seeded order within each
// run's fresh region: every load fills from memory.
func memFill(seed int64, n int) (func() (float64, error), error) {
	h := cache.New(1, cache.Barcelona())
	rng := rand.New(rand.NewSource(seed))
	next := 0
	return func() (float64, error) {
		order := rng.Perm(n)
		base := next
		next += n
		return accessRun(h, n, func(i int) { h.Access(0, mem.Addr((base+order[i])*mem.LineSize), false) },
			func(s cache.Stats) uint64 { return s.MemFills })()
	}, nil
}

// transfer times core 1 loading lines core 0 has just written: one dirty
// cache-to-cache transfer per load. With two sockets the two cores sit on
// different sockets, so every transfer also crosses the socket boundary.
func transfer(sockets int) func(int64, int) (func() (float64, error), error) {
	return func(_ int64, n int) (func() (float64, error), error) {
		const lines = 512 // fits core 0's L1, so its stores hit
		cfg := cache.Barcelona()
		cfg.Sockets = sockets
		h := cache.New(2, cfg)
		return func() (float64, error) {
			c2c0, hops0 := h.Stats(1).C2C, h.Stats(1).XSockHops
			var d time.Duration
			loads := 0
			for loads < n {
				for l := 0; l < lines; l++ {
					h.Access(0, mem.Addr(l*mem.LineSize), true)
				}
				t := time.Now()
				for l := 0; l < lines; l++ {
					h.Access(1, mem.Addr(l*mem.LineSize), false)
				}
				d += time.Since(t)
				loads += lines
			}
			st := h.Stats(1)
			if st.C2C-c2c0 != uint64(loads) || (sockets > 1 && st.XSockHops-hops0 < uint64(loads)) {
				return 0, fmt.Errorf("%d transfers and %d socket hops for %d loads",
					st.C2C-c2c0, st.XSockHops-hops0, loads)
			}
			return perOp(d, loads), nil
		}, nil
	}
}

// asfRegion times asf.Unit.Region around 8 protected loads and 2
// protected stores, committing or ending in an explicit abort. The timer
// interrupt is off so that no region aborts for another reason.
func asfRegion(rollback bool) func(int64, int) (func() (float64, error), error) {
	return func(seed int64, n int) (func() (float64, error), error) {
		n /= 10 // a region costs about ten loads; keep the run as short
		cfg := sim.Barcelona(1)
		cfg.Seed = seed
		cfg.TimerInterval = 0
		m := sim.New(cfg)
		m.Mem.Prefault(0, mem.PageSize)
		u := asf.Install(m, asf.LLB256).Unit(0)
		want := sim.AbortNone
		if rollback {
			want = sim.AbortExplicit
		}
		return func() (float64, error) {
			bad := 0
			t := time.Now()
			m.Run(func(c *sim.CPU) {
				for i := 0; i < n; i++ {
					r, _ := u.Region(func() {
						var v mem.Word
						for l := 0; l < 8; l++ {
							v += u.Load(mem.Addr(l * mem.LineSize))
						}
						u.Store(8*mem.LineSize, v)
						u.Store(9*mem.LineSize, v)
						if rollback {
							u.Abort(1)
						}
					})
					if r != want {
						bad++
					}
				}
			})
			d := time.Since(t)
			if bad > 0 {
				return 0, fmt.Errorf("%d of %d regions did not end in %v", bad, n, want)
			}
			return perOp(d, n), nil
		}, nil
	}
}

// atomic times asfstack.Stack.Atomic with 4 loads and 1 store on one core.
func atomic(runtimeName string) func(int64, int) (func() (float64, error), error) {
	return func(seed int64, n int) (func() (float64, error), error) {
		n /= 10 // as for regions
		s := asfstack.New(asfstack.Options{Cores: 1, Runtime: runtimeName, Seed: seed})
		a := s.AllocShared(5 * mem.LineSize)
		body := func(tx tm.Tx) {
			var v mem.Word
			for l := 0; l < 4; l++ {
				v += tx.Load(a + mem.Addr(l*mem.LineSize))
			}
			tx.Store(a+4*mem.LineSize, v+1)
		}
		return func() (float64, error) {
			c0 := s.TotalStats().Commits
			t := time.Now()
			s.Parallel(1, func(c *sim.CPU) {
				for i := 0; i < n; i++ {
					s.Atomic(c, body)
				}
			})
			d := time.Since(t)
			if got := s.TotalStats().Commits - c0; got != uint64(n) {
				return 0, fmt.Errorf("%d of %d transactions committed", got, n)
			}
			return perOp(d, n), nil
		}, nil
	}
}

// stackNew times asfstack.New for one machine shape, in milliseconds.
func stackNew(o asfstack.Options) func(int64, int) (func() (float64, error), error) {
	return func(seed int64, _ int) (func() (float64, error), error) {
		o.Seed = seed
		return func() (float64, error) {
			t := time.Now()
			s := asfstack.New(o)
			d := time.Since(t)
			if s.RT == nil {
				return 0, fmt.Errorf("no runtime installed")
			}
			return float64(d.Nanoseconds()) / 1e6, nil
		}, nil
	}
}
