package asfstack_test

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus micro-benchmarks of the stack's primitives. The figure benchmarks
// drive the same harness code as cmd/asfbench at a reduced scale and
// report the key simulated metric alongside wall-clock time:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig5 -benchtime=1x
//
// Custom metrics: sim_ms (simulated milliseconds at 2.2 GHz) and simtx/us
// (simulated transactions per microsecond).
//
// BenchmarkFig5Cell, BenchmarkFig5CellWarm, BenchmarkServerCell and
// BenchmarkAdaptive are also allocation gates: each fails when one
// iteration allocates more objects or bytes than the bound written beside
// it. Run each in its own process,
//
//	go test -run '^$' -bench 'BenchmarkFig5Cell$' -benchmem -benchtime 1x .
//
// because a process that has already run other benchmarks allocates fewer
// objects, and takes the slabs earlier cells released, which would loosen
// a cold gate.

import (
	"runtime"
	"testing"

	"asfstack"
	"asfstack/internal/asf"
	"asfstack/internal/elision"
	"asfstack/internal/harness"
	"asfstack/internal/intset"
	"asfstack/internal/mem"
	"asfstack/internal/server"
	"asfstack/internal/sim"
	"asfstack/internal/stamp"
	"asfstack/internal/tm"
)

const benchScale = 0.125 // figure sweeps are large; benches run them small

// BenchmarkFig3 — simulator accuracy sweep (8 STAMP configs × 2 machines).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig3(harness.Options{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 — STAMP scalability sweep (8 apps × 5 runtimes × 4 thread
// counts + sequential bars).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig4(harness.Options{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 — IntegerSet scalability sweep (8 panels × 4 variants × 4
// thread counts).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig5(harness.Options{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 — abort-reason breakdown sweep.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig6(harness.Options{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 — capacity sweep (list and red-black tree size series).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig7(harness.Options{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 — early-release sweep.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig8(harness.Options{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 — single-thread overhead breakdown (and Fig. 9).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table1(harness.Options{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// allocBound runs body b.N times and fails the benchmark when one
// iteration allocates more objects or more bytes than the bound. It reads
// the counters -benchmem reports (MemStats.Mallocs and TotalAlloc) around
// the loop. The counts are not deterministic: they move by up to about 20
// objects and tens of KB with process history. Each bound is the highest
// of 20 fresh-process readings plus a margin no smaller than the readings'
// own range, and at least about 20 objects and 4 KB. A bound may be
// lowered, never raised.
func allocBound(b *testing.B, maxAllocs, maxBytes uint64, body func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		body()
	}
	runtime.ReadMemStats(&after)
	n := uint64(b.N)
	allocs, bytes := (after.Mallocs-before.Mallocs)/n, (after.TotalAlloc-before.TotalAlloc)/n
	if allocs > maxAllocs || bytes > maxBytes {
		b.Errorf("%d allocs/op and %d B/op, bound %d allocs/op and %d B/op", allocs, bytes, maxAllocs, maxBytes)
	}
}

// BenchmarkAdaptive — E13 static-vs-adaptive runtime-selection sweep
// (3 STAMP apps × 5 runtimes × 2 thread counts + 2 IntegerSet cells × 5
// runtimes). An allocation gate. It runs one harness worker, so each cell
// takes the slabs the cell before it released and the bound holds on any
// host; with a worker per CPU, every cell in flight at once would build
// from new slabs, and the reading would grow with the CPU count.
func BenchmarkAdaptive(b *testing.B) {
	allocBound(b, 22_234, 11_262_520, func() {
		if _, err := harness.Adaptive(harness.Options{Scale: benchScale, Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	})
}

// fig5Cell is one Fig. 5 cell: the 512-element linked list at 8 threads,
// the paper's most traversal-heavy panel, at the reported ops count.
var fig5Cell = intset.Config{
	Options:   asfstack.Options{Runtime: "LLB-256", Cores: 8, Seed: 1},
	Structure: "linkedlist", Range: 512, UpdatePct: 20, OpsPerThread: 1500}

// runFig5Cell runs fig5Cell and returns its simulated throughput.
func runFig5Cell(b *testing.B) float64 {
	r, err := intset.Run(fig5Cell)
	if err != nil {
		b.Fatal(err)
	}
	return r.Throughput()
}

// BenchmarkFig5Cell runs fig5Cell in a cold process, which builds its
// machine from new slabs. An allocation gate on the simulator's hot path.
func BenchmarkFig5Cell(b *testing.B) {
	var thr float64
	allocBound(b, 584, 907_872, func() { thr = runFig5Cell(b) })
	b.ReportMetric(thr, "simtx/us")
}

// BenchmarkFig5CellWarm runs fig5Cell once, then gates the next run: a
// cell that follows a released one takes its pages, cache blocks, TLB
// arrays, directory tables, line buffer and generators from the free
// lists (internal/slab) and allocates little beyond them. The first run
// is left out of the time and of -benchmem's counts too.
func BenchmarkFig5CellWarm(b *testing.B) {
	runFig5Cell(b)
	b.ResetTimer()
	var thr float64
	allocBound(b, 515, 105_280, func() { thr = runFig5Cell(b) })
	b.ReportMetric(thr, "simtx/us")
}

// BenchmarkServerCell runs one E16 cell — the open-loop server on a
// two-socket topology at an overload point — and reports the sojourn-time
// quantiles, which are deterministic for the fixed seed, as benchmark
// metrics. An allocation gate on the server and topology path.
func BenchmarkServerCell(b *testing.B) {
	cfg := server.Config{
		Options: asfstack.Options{Runtime: "LLB-256", Topology: "2x8", Seed: 1, SeedSet: true},
		Load:    1.4, Scale: 0.25}
	var r server.Result
	allocBound(b, 1_034, 843_512, func() {
		var err error
		r, err = server.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(r.P50, "p50_cyc")
	b.ReportMetric(r.P95, "p95_cyc")
	b.ReportMetric(r.P99, "p99_cyc")
	b.ReportMetric(r.P999, "p999_cyc")
	b.ReportMetric(r.Throughput(), "simtx/us")
}

// --- per-workload micro-benchmarks with simulated-metric reporting -------

// benchIntset runs one IntegerSet configuration per iteration, reporting
// simulated throughput.
func benchIntset(b *testing.B, cfg intset.Config) {
	var thr float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := intset.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		thr = r.Throughput()
	}
	b.ReportMetric(thr, "simtx/us")
}

func BenchmarkIntsetRBTreeASF(b *testing.B) {
	benchIntset(b, intset.Config{
		Options:   asfstack.Options{Runtime: "LLB-256", Cores: 8},
		Structure: "rbtree", Range: 1024, UpdatePct: 20, OpsPerThread: 400})
}

func BenchmarkIntsetRBTreeSTM(b *testing.B) {
	benchIntset(b, intset.Config{
		Options:   asfstack.Options{Runtime: "STM", Cores: 8},
		Structure: "rbtree", Range: 1024, UpdatePct: 20, OpsPerThread: 400})
}

func BenchmarkIntsetListEarlyRelease(b *testing.B) {
	benchIntset(b, intset.Config{
		Options:   asfstack.Options{Runtime: "LLB-8", Cores: 8},
		Structure: "linkedlist", Range: 256, UpdatePct: 20, OpsPerThread: 400, EarlyRelease: true})
}

func BenchmarkIntsetHashSetASF(b *testing.B) {
	benchIntset(b, intset.Config{
		Options:   asfstack.Options{Runtime: "LLB-256", Cores: 8},
		Structure: "hashset", Range: 4096, UpdatePct: 100, OpsPerThread: 400})
}

// BenchmarkIntsetProfiled is the flight-recorder-enabled twin of
// BenchmarkIntsetRBTreeASF: the same cell with txprof recording on,
// reporting the profile's wasted-work share alongside throughput.
func BenchmarkIntsetProfiled(b *testing.B) {
	cfg := intset.Config{
		Options:   asfstack.Options{Runtime: "LLB-256", Cores: 8, Profile: true},
		Structure: "rbtree", Range: 1024, UpdatePct: 20, OpsPerThread: 400}
	var thr, wasted float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := intset.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Profile == nil {
			b.Fatal("profiling enabled but no profile returned")
		}
		thr = r.Throughput()
		wasted = 100 * r.Profile.Summary.WastedRatio
	}
	b.ReportMetric(thr, "simtx/us")
	b.ReportMetric(wasted, "wasted_pct")
}

// benchStamp runs one STAMP configuration per iteration, reporting the
// simulated execution time.
func benchStamp(b *testing.B, app, rt string, threads int) {
	var ms float64
	for i := 0; i < b.N; i++ {
		r, err := stamp.Run(stamp.Config{
			Options: asfstack.Options{Runtime: rt, Cores: threads, Seed: int64(i + 1)},
			App:     app, Scale: 0.25})
		if err != nil {
			b.Fatal(err)
		}
		ms = r.Millis()
	}
	b.ReportMetric(ms, "sim_ms")
}

func BenchmarkStampGenomeASF(b *testing.B)   { benchStamp(b, "genome", "LLB-256", 8) }
func BenchmarkStampGenomeSTM(b *testing.B)   { benchStamp(b, "genome", "STM", 8) }
func BenchmarkStampVacationASF(b *testing.B) { benchStamp(b, "vacation-low", "LLB-256", 8) }
func BenchmarkStampSSCA2ASF(b *testing.B)    { benchStamp(b, "ssca2", "LLB-256", 8) }

// BenchmarkAtomicOverhead measures the bare begin/commit cost of an empty
// transaction on each runtime (the Table 1 start/commit row in isolation).
func BenchmarkAtomicOverhead(b *testing.B) {
	for _, rt := range asfstack.RuntimeNames {
		b.Run(rt, func(b *testing.B) {
			s := asfstack.New(asfstack.Options{Cores: 1, Runtime: rt})
			a := s.AllocShared(8)
			var perTx float64
			for i := 0; i < b.N; i++ {
				start := s.M.SyncClocks()
				end := s.Parallel(1, func(c *sim.CPU) {
					for j := 0; j < 200; j++ {
						s.Atomic(c, func(tx tm.Tx) { tx.Load(a) })
					}
				})
				perTx = float64(end-start) / 200
			}
			b.ReportMetric(perTx, "simcycles/tx")
		})
	}
}

// BenchmarkSimulatorOpRate measures raw simulation speed: host time per
// simulated memory operation, single core and 8 cores (the rendezvous
// cost).
func BenchmarkSimulatorOpRate(b *testing.B) {
	for _, cores := range []int{1, 8} {
		b.Run(map[int]string{1: "solo", 8: "8core"}[cores], func(b *testing.B) {
			m := sim.New(sim.Barcelona(cores))
			m.Mem.Prefault(0, 1<<24)
			b.ResetTimer()
			ops := 0
			for i := 0; i < b.N; i++ {
				bodies := make([]func(c *sim.CPU), cores)
				for t := 0; t < cores; t++ {
					bodies[t] = func(c *sim.CPU) {
						base := uint64(c.ID()) << 20
						for j := 0; j < 1000; j++ {
							c.Load(mem.Addr(base + uint64(j%512)*64))
						}
					}
				}
				m.Run(bodies...)
				ops += 1000 * cores
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "host_ns/op")
		})
	}
}

// BenchmarkAblationVariants compares the paper's LLB-256 against the two
// ablation configurations DESIGN.md calls out: the pure cache-based
// implementation (§2.3) and the ASF1 revision without dynamic write-set
// expansion (§6), on the red-black-tree workload. ASF1's frozen protected
// set forces the runtime into serial-irrevocable mode for tree updates;
// the cache-based variant suffers associativity displacement.
func BenchmarkAblationVariants(b *testing.B) {
	for _, rt := range []string{"LLB-256", "Cache-based", "ASF1 LLB-256"} {
		b.Run(rt, func(b *testing.B) {
			var thr float64
			var serialPct float64
			for i := 0; i < b.N; i++ {
				r, err := intset.Run(intset.Config{
					Options:   asfstack.Options{Runtime: rt, Cores: 8, Seed: int64(i + 1)},
					Structure: "rbtree", Range: 512, UpdatePct: 20, OpsPerThread: 300})
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput()
				serialPct = float64(r.Stats.Serial) / float64(r.Stats.Commits) * 100
			}
			b.ReportMetric(thr, "simtx/us")
			b.ReportMetric(serialPct, "serial%")
		})
	}
}

// BenchmarkLockElision compares eliding a single global lock against
// actually acquiring it, on disjoint per-thread updates (the elision
// best case).
func BenchmarkLockElision(b *testing.B) {
	run := func(b *testing.B, maxAttempts int) (elidedPct float64, simMs float64) {
		m := sim.New(sim.Barcelona(8))
		m.Mem.Prefault(0, 1<<22)
		sys := asf.Install(m, asf.LLB256)
		e := elision.New(sys, 8)
		e.MaxAttempts = maxAttempts
		mu := elision.NewMutex(0x100000)
		bodies := make([]func(*sim.CPU), 8)
		for t := range bodies {
			bodies[t] = func(c *sim.CPU) {
				a := mem.Addr(0x200000 + c.ID()*0x1000)
				for i := 0; i < 300; i++ {
					e.Critical(c, mu, func(cs elision.CS) {
						cs.Store(a, cs.Load(a)+1)
					})
				}
			}
		}
		dur := m.Run(bodies...)
		var st elision.Stats
		for i := 0; i < 8; i++ {
			s := e.Stats(i)
			st.Elided += s.Elided
			st.Acquired += s.Acquired
		}
		return float64(st.Elided) / float64(st.Elided+st.Acquired) * 100,
			float64(dur) / 2_200_000
	}
	b.Run("elided", func(b *testing.B) {
		var pct, ms float64
		for i := 0; i < b.N; i++ {
			pct, ms = run(b, 4)
		}
		b.ReportMetric(pct, "elided%")
		b.ReportMetric(ms, "sim_ms")
	})
	b.Run("always-acquire", func(b *testing.B) {
		var ms float64
		for i := 0; i < b.N; i++ {
			_, ms = run(b, 0)
		}
		b.ReportMetric(ms, "sim_ms")
	})
}
