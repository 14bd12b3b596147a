package asfstack

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"asfstack/internal/cache"
	"asfstack/internal/hytm"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/txprof"
)

// concurrentRuntimes are the runtimes that are correct on >1 thread.
var concurrentRuntimes = []string{
	"LLB-8", "LLB-256", "LLB-8 w/ L1", "LLB-256 w/ L1", "STM",
}

func TestAtomicCounterAllRuntimes(t *testing.T) {
	const threads, incs = 4, 250
	for _, rt := range concurrentRuntimes {
		t.Run(rt, func(t *testing.T) {
			s := New(Options{Cores: threads, Runtime: rt})
			ctr := s.AllocShared(8)
			s.Parallel(threads, func(c *sim.CPU) {
				for i := 0; i < incs; i++ {
					s.Atomic(c, func(tx tm.Tx) {
						tx.Store(ctr, tx.Load(ctr)+1)
					})
				}
			})
			if got := s.M.Mem.Load(ctr); got != threads*incs {
				t.Fatalf("counter = %d, want %d", got, threads*incs)
			}
			st := s.TotalStats()
			if st.Commits != threads*incs {
				t.Fatalf("commits = %d, want %d", st.Commits, threads*incs)
			}
		})
	}
}

func TestBankTransferInvariant(t *testing.T) {
	// Random transfers between accounts must conserve the total: the
	// classic atomicity test. Accounts are line-padded so conflicts are
	// real (not false sharing).
	const threads, accounts, transfers, initBal = 4, 16, 300, 1000
	for _, rt := range concurrentRuntimes {
		t.Run(rt, func(t *testing.T) {
			s := New(Options{Cores: threads, Runtime: rt})
			base := s.AllocShared(accounts * mem.LineSize)
			acct := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineSize) }
			for i := 0; i < accounts; i++ {
				s.M.Mem.Store(acct(i), initBal)
			}
			s.Parallel(threads, func(c *sim.CPU) {
				rng := c.Rand()
				for i := 0; i < transfers; i++ {
					from, to := rng.Intn(accounts), rng.Intn(accounts)
					amt := mem.Word(rng.Intn(50))
					s.Atomic(c, func(tx tm.Tx) {
						f := tx.Load(acct(from))
						tx.Store(acct(from), f-amt)
						tx.Store(acct(to), tx.Load(acct(to))+amt)
					})
				}
			})
			var sum mem.Word
			for i := 0; i < accounts; i++ {
				sum += s.M.Mem.Load(acct(i))
			}
			if sum != accounts*initBal {
				t.Fatalf("total = %d, want %d", sum, accounts*initBal)
			}
		})
	}
}

func TestCapacityFallbackKeepsCorrectness(t *testing.T) {
	// Transactions touching 32 lines exceed LLB-8: every one of them must
	// fall back to serial-irrevocable mode and still commit atomically.
	const threads, rounds, lines = 4, 40, 32
	s := New(Options{Cores: threads, Runtime: "LLB-8"})
	base := s.AllocShared(lines * mem.LineSize)
	s.Parallel(threads, func(c *sim.CPU) {
		for i := 0; i < rounds; i++ {
			s.Atomic(c, func(tx tm.Tx) {
				for j := 0; j < lines; j++ {
					a := base + mem.Addr(j*mem.LineSize)
					tx.Store(a, tx.Load(a)+1)
				}
			})
		}
	})
	for j := 0; j < lines; j++ {
		a := base + mem.Addr(j*mem.LineSize)
		if got := s.M.Mem.Load(a); got != threads*rounds {
			t.Fatalf("line %d = %d, want %d", j, got, threads*rounds)
		}
	}
	st := s.TotalStats()
	if st.Serial == 0 {
		t.Fatal("no serial-irrevocable executions despite capacity overflow")
	}
	if st.Aborts[sim.AbortCapacity] == 0 {
		t.Fatal("no capacity aborts recorded")
	}
}

func TestMixedReadersAndWriters(t *testing.T) {
	// Writers update a shared array; readers snapshot two cells and check
	// they observe a consistent pair (both updated together).
	const threads, rounds = 4, 200
	for _, rt := range concurrentRuntimes {
		t.Run(rt, func(t *testing.T) {
			s := New(Options{Cores: threads, Runtime: rt})
			base := s.AllocShared(2 * mem.LineSize)
			a0, a1 := base, base+mem.LineSize
			bad := 0
			s.Parallel(threads, func(c *sim.CPU) {
				for i := 0; i < rounds; i++ {
					if c.ID()%2 == 0 {
						s.Atomic(c, func(tx tm.Tx) {
							v := tx.Load(a0)
							tx.Store(a0, v+1)
							tx.Store(a1, v+1)
						})
					} else {
						s.Atomic(c, func(tx tm.Tx) {
							x := tx.Load(a0)
							y := tx.Load(a1)
							if x != y {
								bad++
							}
						})
					}
				}
			})
			if bad != 0 {
				t.Fatalf("%d inconsistent snapshots (atomicity violation)", bad)
			}
		})
	}
}

func TestTransactionalAllocation(t *testing.T) {
	// Allocate nodes inside transactions and link them into a shared
	// list; the list length must equal the commits.
	const threads, pushes = 4, 100
	for _, rt := range concurrentRuntimes {
		t.Run(rt, func(t *testing.T) {
			s := New(Options{Cores: threads, Runtime: rt})
			head := s.AllocShared(8)
			s.Parallel(threads, func(c *sim.CPU) {
				for i := 0; i < pushes; i++ {
					s.Atomic(c, func(tx tm.Tx) {
						n := tx.Alloc(16) // next, value
						tx.Store(n+8, mem.Word(c.ID()))
						tx.Store(n, tx.Load(head))
						tx.Store(head, mem.Word(n))
					})
				}
			})
			count := 0
			for p := s.M.Mem.Load(head); p != 0; p = s.M.Mem.Load(mem.Addr(p)) {
				count++
			}
			if count != threads*pushes {
				t.Fatalf("list length = %d, want %d", count, threads*pushes)
			}
		})
	}
}

func TestNestedAtomicFlattens(t *testing.T) {
	for _, rt := range append(concurrentRuntimes, "Sequential") {
		t.Run(rt, func(t *testing.T) {
			s := New(Options{Cores: 1, Runtime: rt})
			a := s.AllocShared(8)
			s.Parallel(1, func(c *sim.CPU) {
				s.Atomic(c, func(tx tm.Tx) {
					tx.Store(a, 1)
					s.Atomic(c, func(tx2 tm.Tx) {
						tx2.Store(a, tx2.Load(a)+1)
					})
					tx.Store(a, tx.Load(a)+1)
				})
			})
			if got := s.M.Mem.Load(a); got != 3 {
				t.Fatalf("nested result = %d, want 3", got)
			}
		})
	}
}

func TestSequentialBaselineRuns(t *testing.T) {
	s := New(Options{Cores: 1, Runtime: "Sequential"})
	a := s.AllocShared(8)
	dur := s.Parallel(1, func(c *sim.CPU) {
		for i := 0; i < 100; i++ {
			s.Atomic(c, func(tx tm.Tx) {
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	if got := s.M.Mem.Load(a); got != 100 {
		t.Fatalf("counter = %d", got)
	}
	if dur == 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestASFOutperformsSTMSingleThread(t *testing.T) {
	// The headline claim at one thread: ASF-TM's barriers are far cheaper
	// than the STM's. Run identical work and compare simulated time.
	run := func(rt string) uint64 {
		s := New(Options{Cores: 1, Runtime: rt})
		base := s.AllocShared(64 * mem.LineSize)
		return s.Parallel(1, func(c *sim.CPU) {
			rng := c.Rand()
			for i := 0; i < 300; i++ {
				s.Atomic(c, func(tx tm.Tx) {
					for j := 0; j < 8; j++ {
						a := base + mem.Addr(rng.Intn(64)*mem.LineSize)
						tx.Store(a, tx.Load(a)+1)
					}
				})
			}
		})
	}
	asfT, stmT := run("LLB-256"), run("STM")
	if asfT >= stmT {
		t.Fatalf("ASF (%d cycles) not faster than STM (%d cycles)", asfT, stmT)
	}
}

func TestAblationRuntimesWork(t *testing.T) {
	// The ablation configurations are full runtimes: correctness must
	// hold even where their hardware limits force the serial fallback.
	const threads, incs = 4, 150
	for _, rt := range []string{"Cache-based", "ASF1 LLB-256"} {
		t.Run(rt, func(t *testing.T) {
			s := New(Options{Cores: threads, Runtime: rt})
			base := s.AllocShared(4 * mem.LineSize)
			s.Parallel(threads, func(c *sim.CPU) {
				rng := c.Rand()
				for i := 0; i < incs; i++ {
					a := base + mem.Addr(rng.Intn(4)*mem.LineSize)
					s.Atomic(c, func(tx tm.Tx) {
						tx.Store(a, tx.Load(a)+1)
					})
				}
			})
			var sum mem.Word
			for i := 0; i < 4; i++ {
				sum += s.M.Mem.Load(base + mem.Addr(i*mem.LineSize))
			}
			if sum != threads*incs {
				t.Fatalf("sum = %d, want %d", sum, threads*incs)
			}
		})
	}
}

// machine returns the Barcelona machine for four cores with edit applied
// to its cache configuration.
func machine(edit func(*cache.Config)) *sim.Config {
	cfg := sim.Barcelona(4)
	edit(&cfg.Cache)
	return &cfg
}

// TestBuildRejectsBadOptions: every malformed spec is an error from Build,
// and New panics with that same error. That covers cache geometries the
// hierarchy cannot build and heaps whose regions would cross mem.MaxAddr.
func TestBuildRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"zero cores", Options{Runtime: "LLB-256"}, "0 cores out of range"},
		{"65 cores", Options{Cores: 65, Runtime: "LLB-256"}, "65 cores out of range"},
		{"topology beyond MaxCores", Options{Topology: "2x64", Runtime: "LLB-256"}, "128 cores out of range"},
		{"malformed topology", Options{Topology: "2by8", Runtime: "LLB-256"}, "bad topology"},
		{"topology core count wraps", Options{Topology: "3x6148914691236517206", Runtime: "LLB-256"}, "overflows"},
		{"cores differ from topology", Options{Cores: 8, Topology: "2x2", Runtime: "LLB-256"}, "conflict with topology"},
		{"unknown runtime", Options{Cores: 1, Runtime: "Bogus"}, "unknown runtime"},
		{"L1 without ways", Options{Cores: 4, Runtime: "LLB-256",
			Machine: machine(func(c *cache.Config) { c.L1Assoc = 0 })}, "L1 associativity 0"},
		{"L1 of 341 sets", Options{Cores: 4, Runtime: "LLB-256",
			Machine: machine(func(c *cache.Config) { c.L1Assoc = 3 })}, "has 341 sets, want a power of two"},
		{"L2 of no bytes", Options{Cores: 4, Runtime: "LLB-256",
			Machine: machine(func(c *cache.Config) { c.L2Size = 0 })}, "L2 of 0 bytes"},
		{"L1 TLB without entries", Options{Cores: 4, Runtime: "LLB-256",
			Machine: machine(func(c *cache.Config) { c.TLB1Entries = 0 })}, "0 L1 TLB entries"},
		{"L2 TLB without ways", Options{Cores: 4, Runtime: "LLB-256",
			Machine: machine(func(c *cache.Config) { c.TLB2Assoc = 0 })}, "L2 TLB associativity 0"},
		{"L2 TLB of 3 sets", Options{Cores: 4, Runtime: "LLB-256",
			Machine: machine(func(c *cache.Config) { c.TLB2Entries = 12 })}, "12 L2 TLB entries at 4 ways"},
		{"L2 TLB without entries", Options{Cores: 4, Runtime: "LLB-256",
			Machine: machine(func(c *cache.Config) { c.TLB2Entries = 0 })}, "0 L2 TLB entries at 4 ways"},
		{"heap of 2^62 per core", Options{Cores: 4, Runtime: "LLB-256", HeapPerCore: 1 << 62}, "cross mem.MaxAddr"},
		{"heap that wraps when page-aligned", Options{Cores: 4, Runtime: "LLB-256", HeapPerCore: 1<<64 - 4096},
			"cross mem.MaxAddr"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build: err = %v, want one mentioning %q", err, tc.want)
			}
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Fatalf("New panicked with %v, want %v", r, err)
				}
			}()
			New(tc.opts)
		})
	}
}

// TestBuildAcceptsOddGeometry: a geometry whose associativity is not a
// power of two builds and runs as long as its set count is one (a 3-way
// L1 of 512 sets).
func TestBuildAcceptsOddGeometry(t *testing.T) {
	s, err := Build(Options{Cores: 2, Runtime: "LLB-256",
		Machine: machine(func(c *cache.Config) { c.L1Size, c.L1Assoc = 3*512*mem.LineSize, 3 })})
	if err != nil {
		t.Fatal(err)
	}
	ctr := s.AllocShared(8)
	s.Parallel(2, func(c *sim.CPU) {
		inc := func(tx tm.Tx) { tx.Store(ctr, tx.Load(ctr)+1) }
		for i := 0; i < 100; i++ {
			s.Atomic(c, inc)
		}
	})
	if v := s.M.Mem.Load(ctr); v != 200 {
		t.Fatalf("counter = %d, want 200", v)
	}
}

func TestBeginMeasuredResetsEverything(t *testing.T) {
	s := New(Options{Cores: 2, Runtime: "LLB-256"})
	a := s.AllocShared(8)
	s.Parallel(2, func(c *sim.CPU) {
		for i := 0; i < 20; i++ {
			s.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
		}
	})
	start := s.BeginMeasured()
	if st := s.TotalStats(); st.Commits != 0 {
		t.Fatal("stats survived BeginMeasured")
	}
	for i := 0; i < 2; i++ {
		if s.M.CPU(i).Now() != start {
			t.Fatal("clocks not synchronised")
		}
		if s.M.CPU(i).Counters().Total() != 0 {
			t.Fatal("counters survived BeginMeasured")
		}
	}
}

// TestMeasureTrace: Measure returns a traced run only when Options.Trace
// is set, and then it starts at the measured phase's start cycle and holds
// both the category switches and the transaction events.
func TestMeasureTrace(t *testing.T) {
	for _, trace := range []bool{false, true} {
		s := New(Options{Cores: 2, Runtime: "LLB-256", Trace: trace})
		a := s.AllocShared(8)
		s.Setup(func(tx tm.Tx) { tx.Store(a, 1) }) // start the phase past cycle 0
		var start uint64
		r := s.Measure(func(c *sim.CPU, st uint64) {
			start = st
			s.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
		})
		if r.Stats.Commits != 2 || r.Cycles == 0 {
			t.Fatalf("trace=%v: %d commits in %d cycles, want 2 commits", trace, r.Stats.Commits, r.Cycles)
		}
		if got := r.Trace != nil; got != trace {
			t.Fatalf("trace=%v: got run %v", trace, r.Trace)
		}
		if !trace {
			continue
		}
		if start == 0 || r.Trace.Start != start {
			t.Errorf("Trace.Start = %d, want the phase start %d", r.Trace.Start, start)
		}
		if len(r.Trace.Events) == 0 {
			t.Error("no category switches recorded")
		}
		for core, txs := range r.Trace.Tx {
			var kinds [tm.NumTxEventKinds]int
			for _, ev := range txs {
				kinds[ev.Kind]++
			}
			if kinds[tm.TxEvBegin] != 1 || kinds[tm.TxEvCommit] != 1 {
				t.Errorf("core %d transaction events = %+v, want one begin and one commit", core, txs)
			}
		}
	}
}

// TestSeedSet: Seed 0 with SeedSet runs the machine on seed 0, leaving both
// unset keeps the machine's default (42, or the seed of Options.Machine),
// and Stack.Opts reports the seed the machine runs on.
func TestSeedSet(t *testing.T) {
	m5 := sim.Barcelona(1)
	m5.Seed = 5
	for _, tc := range []struct {
		opts Options
		want int64
	}{
		{Options{Cores: 1}, 42},
		{Options{Cores: 1, SeedSet: true}, 0},
		{Options{Cores: 1, Seed: 7}, 7},
		{Options{Cores: 1, Machine: &m5}, 5},
		{Options{Cores: 1, Machine: &m5, SeedSet: true}, 0},
	} {
		s := New(tc.opts)
		if got := s.M.Config().Seed; got != tc.want || s.Opts.Seed != tc.want {
			t.Errorf("Seed %d SeedSet %v: machine seed %d, Opts.Seed %d, want %d",
				tc.opts.Seed, tc.opts.SeedSet, got, s.Opts.Seed, tc.want)
		}
	}
}

// update rewrites the lifecycle pin (testdata/lifecycle_digests.json) from
// this run's digests.
var update = flag.Bool("update", false, "rewrite testdata/lifecycle_digests.json")

// lifecyclePinPath pins TestLifecyclePinned: one digest per runtime.
const lifecyclePinPath = "testdata/lifecycle_digests.json"

// lifecycleCase is one pinned configuration: a runtime of RuntimeNames,
// HyTM also with ForceSW.
type lifecycleCase struct {
	name, runtime string
	forceSW       bool
}

func lifecycleCases() []lifecycleCase {
	var cases []lifecycleCase
	for _, rt := range RuntimeNames {
		if strings.HasPrefix(rt, "HyTM") {
			cases = append(cases, lifecycleCase{rt + " ForceSW", rt, true})
		}
		if rt != "Sequential" {
			cases = append(cases, lifecycleCase{rt, rt, false})
		}
	}
	return cases
}

// required lists the transitions the script must reach (in
// lifecycleTransitions' notation); none on the adaptive selector, whose
// runtime choice moves with its probes. Codes are the tm.Code* values:
// 0x5e71a2 a BecomeIrrevocable request, 0x11a110c a malloc refill,
// 0x5e71a1 the serial token held, 0x5e90c HyTM's seqlock held.
func (lc lifecycleCase) required() []string {
	switch rt := lc.runtime; {
	case lc.forceSW:
		return []string{"begin sw", "fallback sw->serial after sw stm"}
	case strings.HasPrefix(rt, "LLB"):
		return []string{
			"fallback hw->serial after hw explicit 0x5e71a2",
			"abort hw explicit 0x11a110c",
			"abort hw explicit 0x5e71a1",
			"fallback hw->serial after hw capacity",
			"abort hw contention",
		}
	case strings.HasPrefix(rt, "HyTM"):
		return []string{
			"fallback hw->serial after hw explicit 0x5e71a2",
			"fallback sw->serial after sw stm",
			"abort hw explicit 0x11a110c",
			"abort hw explicit 0x5e90c",
			"fallback hw->sw after hw capacity",
			"abort hw contention",
		}
	case rt == "STM":
		return []string{"fallback sw->serial after sw stm", "abort sw stm"}
	case rt == "Cohorts":
		return []string{"fallback sw->serial after sw explicit 0x5e71a2", "abort sw stm"}
	case rt == "Cohorts-turbo":
		return []string{"fallback sw->serial after sw explicit 0x5e71a2", "abort sw stm", "commit turbo"}
	}
	return nil
}

// TestLifecyclePinned pins the transaction lifecycle of every runtime: a
// scripted 4-core program that reaches each restart, back-off, wait and
// fallback transition, hashed over everything the lifecycle can move (see
// lifecycleRun.digest). A change to how runtimes begin, abort, fall back
// or commit fails here, naming the runtimes that moved; one that moves
// them on purpose re-pins with -update.
func TestLifecyclePinned(t *testing.T) {
	got := map[string]string{}
	for _, lc := range lifecycleCases() {
		t.Run(lc.name, func(t *testing.T) {
			run := runLifecycleScript(lc.runtime, lc.forceSW)
			seen := lifecycleTransitions(run.res.Trace.Tx)
			for _, want := range lc.required() {
				if !seen[want] {
					t.Errorf("transition %q not reached", want)
				}
			}
			if lc.runtime == "Cohorts-turbo" {
				solo, _ := run.res.Metrics.Counter("cohorts/solo_entries")
				granted := 0
				for _, n := range run.granted {
					granted += n
				}
				if granted <= int(solo.Total) {
					t.Errorf("no turbo attempt became irrevocable in place (%d grants, %d solo cohorts)", granted, solo.Total)
				}
			}
			got[lc.name] = run.digest()
		})
	}
	if t.Failed() {
		return
	}
	pin := map[string]string{}
	data, err := os.ReadFile(lifecyclePinPath)
	if err == nil {
		err = json.Unmarshal(data, &pin)
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(lifecyclePinPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			t.Fatalf("writing the lifecycle pin: %v", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("reading the lifecycle pin: %v", err)
	}
	var moved []string
	for name, d := range got {
		if pin[name] != d {
			moved = append(moved, fmt.Sprintf("%s (%s, pinned %q)", name, d, pin[name]))
		}
	}
	slices.Sort(moved)
	if len(moved) > 0 {
		t.Errorf("lifecycle moved from %s for %d runtime(s): %s; if the change is intended, re-pin with -update and list them in CHANGES.md",
			lifecyclePinPath, len(moved), strings.Join(moved, ", "))
	}
}

// lifecycleTransitions names every transition a TxEvent stream shows:
// "begin <path>", "abort <path> <cause>[ <code>]" (cause "stm" for a
// software-runtime abort), "fallback <from>-><to> after <the abort>" and
// "commit <path>".
func lifecycleTransitions(tx [][]tm.TxEvent) map[string]bool {
	seen := map[string]bool{}
	for _, evs := range tx {
		path, last := tm.PathHW, ""
		for _, ev := range evs {
			switch ev.Kind {
			case tm.TxEvBegin:
				path = ev.Path
				seen["begin "+path.String()] = true
			case tm.TxEvAbort:
				cause := ev.Cause.String()
				if ev.STM {
					cause = "stm"
				}
				last = ev.Path.String() + " " + cause
				if ev.Code != 0 {
					last += fmt.Sprintf(" %#x", ev.Code)
				}
				seen["abort "+last] = true
			case tm.TxEvFallback:
				seen[fmt.Sprintf("fallback %s->%s after %s", path, ev.Path, last)] = true
				path = ev.Path
			case tm.TxEvCommit:
				seen["commit "+ev.Path.String()] = true
			}
		}
	}
	return seen
}

// lifecycleRun is one scripted 4-core run of a runtime, with the flight
// recorder and the tracer on.
type lifecycleRun struct {
	s   *Stack
	res RunResult
	// granted counts, per core, the BecomeIrrevocable calls that returned:
	// a serial attempt, or a Cohorts turbo attempt granted in place.
	granted [4]int
}

// runLifecycleScript runs the lifecycle script on rt: every core makes
// contended increments, allocates, and in turn overflows capacity, asks
// for irrevocability early, overflows and then asks, and nests. Core 0
// first runs a long read-mostly transaction that asks for irrevocability
// at its end, by which time the other cores' first commits have sealed a
// Cohorts cohort around it, so Cohorts-turbo grants it in place.
func runLifecycleScript(rt string, forceSW bool) *lifecycleRun {
	const cores, rounds, bigLines, longLines = 4, 3, 300, 48
	s := New(Options{Cores: cores, Runtime: rt, Profile: true, Trace: true})
	if forceSW {
		s.RT.(*hytm.Runtime).ForceSW = true
	}
	ctr := s.AllocShared(8)
	ro := s.AllocShared(longLines * mem.LineSize)
	var big [cores]mem.Addr
	for i := range big {
		big[i] = s.AllocShared(bigLines * mem.LineSize)
	}
	out := &lifecycleRun{s: s}
	out.res = s.Measure(func(c *sim.CPU, _ uint64) {
		id := c.ID()
		irrevocable := func(tx tm.Tx) {
			tx.(tm.Irrevocably).BecomeIrrevocable()
			out.granted[id]++
		}
		incr := func(tx tm.Tx) {
			v := tx.Load(ctr)
			tx.CPU().Exec(300)
			tx.Store(ctr, v+1)
		}
		overflow := func(tx tm.Tx) {
			for j := 0; j < bigLines; j++ {
				a := big[id] + mem.Addr(j*mem.LineSize)
				tx.Store(a, tx.Load(a)+1)
			}
		}
		alloc := func(tx tm.Tx) {
			p := tx.Alloc(20 << 10)
			tx.Store(p, mem.Word(id))
		}
		bodies := [...]func(tx tm.Tx){
			overflow,
			func(tx tm.Tx) {
				irrevocable(tx)
				v := tx.Load(ctr)
				tx.CPU().Exec(2000)
				tx.Store(ctr, v+1)
			},
			func(tx tm.Tx) {
				overflow(tx)
				irrevocable(tx)
			},
			func(tx tm.Tx) {
				tx.Store(ctr, tx.Load(ctr)+1)
				s.Atomic(c, incr)
			},
		}
		if id == 0 {
			s.Atomic(c, func(tx tm.Tx) {
				for j := 0; j < longLines; j++ {
					tx.Load(ro + mem.Addr(j*mem.LineSize))
					tx.CPU().Exec(120)
				}
				irrevocable(tx)
				tx.Store(ctr, tx.Load(ctr)+1)
			})
		} else {
			for k := 0; k < 3; k++ {
				s.Atomic(c, incr)
			}
		}
		for round := 0; round < rounds; round++ {
			for k := 0; k < 4; k++ {
				s.Atomic(c, incr)
			}
			s.Atomic(c, alloc)
			s.Atomic(c, bodies[(id+round)%len(bodies)])
		}
	})
	return out
}

// digest hashes everything the run's lifecycle can move: each core's
// category counters and clock, the runtime's per-core Stats, the sim
// section of the metrics snapshot, the flight-recorder profile, and the
// traced run (every category switch and every TxEvent).
func (l *lifecycleRun) digest() string {
	type coreState struct {
		Counters sim.Breakdown
		Now      uint64
		Stats    tm.Stats
	}
	state := struct {
		Cores   []coreState
		Metrics metrics.Section
		Profile *txprof.Profile
		Events  []sim.TraceEvent
		Tx      [][]tm.TxEvent
	}{Metrics: l.res.Metrics.Sim, Profile: l.res.Profile, Events: l.res.Trace.Events, Tx: l.res.Trace.Tx}
	for i := 0; i < l.s.Opts.Cores; i++ {
		c := l.s.M.CPU(i)
		state.Cores = append(state.Cores, coreState{c.Counters(), c.Now(), l.s.RT.Stats(i)})
	}
	j, err := json.Marshal(state)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(j)
	return hex.EncodeToString(sum[:])[:16]
}
