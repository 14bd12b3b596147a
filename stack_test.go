package asfstack

import (
	"fmt"
	"strings"
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
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

// TestBuildRejectsBadOptions: every malformed spec is an error from Build,
// and New panics with that same error.
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
