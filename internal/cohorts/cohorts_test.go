package cohorts

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

func newRT(t *testing.T, cores int, turbo bool) (*sim.Machine, *Runtime) {
	t.Helper()
	m := sim.New(sim.Barcelona(cores))
	m.Mem.Prefault(0, 1<<21)
	layout := mem.NewLayout(1 << 22)
	heap := tm.NewHeap(m.Mem, layout, cores, 16<<20)
	return m, New(m, heap, layout, turbo)
}

// counterTotal pulls one cohorts/* counter out of a registry snapshot.
func counterTotal(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	snap := reg.Snapshot()
	for _, c := range snap.Sim.Counters {
		if c.Name == name {
			return c.Total
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

// TestAtomicCounter is the basic atomicity check for both configurations:
// contended read-modify-write increments across cores must not lose
// updates, and the shared cohort counters must all drain back to zero.
func TestAtomicCounter(t *testing.T) {
	for _, turbo := range []bool{false, true} {
		name := "plain"
		if turbo {
			name = "turbo"
		}
		t.Run(name, func(t *testing.T) {
			m, r := newRT(t, 4, turbo)
			const rounds = 50
			const ctr = mem.Addr(0xA000)
			body := func(c *sim.CPU) {
				for i := 0; i < rounds; i++ {
					r.Atomic(c, func(tx tm.Tx) {
						tx.Store(ctr, tx.Load(ctr)+1)
					})
				}
			}
			m.Run(body, body, body, body)
			if got := m.Mem.Load(ctr); got != 4*rounds {
				t.Fatalf("counter = %d, want %d (lost updates)", got, 4*rounds)
			}
			var total tm.Stats
			for i := 0; i < 4; i++ {
				total.Add(r.Stats(i))
			}
			if total.Commits != 4*rounds {
				t.Fatalf("commits = %d, want %d", total.Commits, 4*rounds)
			}
			if total.Seals == 0 {
				t.Fatal("no cohort seals recorded despite write transactions")
			}
			st, se, fi, or := r.Counters()
			if st != 0 || se != 0 || fi != 0 || or != 0 {
				t.Fatalf("cohort counters not drained: started=%d sealed=%d finished=%d order=%d", st, se, fi, or)
			}
			if v := r.TurboViolations(); v != 0 {
				t.Fatalf("turbo violations = %d", v)
			}
		})
	}
}

// TestSealDrainUnderChurn hammers begin/seal/commit from many cores over
// disjoint data (maximum membership churn, no validation aborts) and checks
// the counter-drain invariant after every machine barrier. Run with -race:
// the host-side descriptor state must stay per-core.
func TestSealDrainUnderChurn(t *testing.T) {
	m, r := newRT(t, 8, true)
	const rounds = 40
	worker := func(c *sim.CPU) {
		base := mem.Addr(0x10000 + c.ID()*0x4000)
		for i := 0; i < rounds; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				for j := 0; j < 4; j++ {
					a := base + mem.Addr(j*mem.LineSize)
					tx.Store(a, tx.Load(a)+1)
				}
			})
		}
	}
	fns := make([]func(*sim.CPU), 8)
	for i := range fns {
		fns[i] = worker
	}
	m.Run(fns...)
	st, se, fi, or := r.Counters()
	if st != 0 || se != 0 || fi != 0 || or != 0 {
		t.Fatalf("cohort counters not drained: started=%d sealed=%d finished=%d order=%d", st, se, fi, or)
	}
	var total tm.Stats
	for i := 0; i < 8; i++ {
		total.Add(r.Stats(i))
	}
	if total.Commits != 8*rounds {
		t.Fatalf("commits = %d, want %d", total.Commits, 8*rounds)
	}
	if total.STMAborts != 0 {
		t.Fatalf("validation aborts = %d on disjoint data, want 0", total.STMAborts)
	}
}

// TestValidationAbortRetries: conflicting writers must detect the conflict
// at commit (value validation), abort, and still converge to the correct
// value — and the abort is attributed as a software abort.
func TestValidationAbortRetries(t *testing.T) {
	m, r := newRT(t, 4, false)
	const rounds = 60
	const ctr = mem.Addr(0xB000)
	body := func(c *sim.CPU) {
		for i := 0; i < rounds; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				tx.Store(ctr, tx.Load(ctr)+1)
			})
		}
	}
	m.Run(body, body, body, body)
	if got := m.Mem.Load(ctr); got != 4*rounds {
		t.Fatalf("counter = %d, want %d", got, 4*rounds)
	}
	var total tm.Stats
	for i := 0; i < 4; i++ {
		total.Add(r.Stats(i))
	}
	if total.STMAborts == 0 {
		t.Fatal("no validation aborts despite full write contention")
	}
	if total.Serial != 0 {
		t.Fatalf("serial entries = %d, want 0 (no irrevocability requested)", total.Serial)
	}
}

// TestTurboExactlyOnePerCohort pins the turbo invariant: at most one
// transaction per sealed cohort runs uninstrumented, and turbo mode
// actually engages under contention.
func TestTurboExactlyOnePerCohort(t *testing.T) {
	m, r := newRT(t, 4, true)
	reg := metrics.New(4)
	r.SetMetrics(reg)
	const rounds = 80
	body := func(c *sim.CPU) {
		base := mem.Addr(0x20000 + c.ID()*0x4000)
		for i := 0; i < rounds; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				for j := 0; j < 3; j++ {
					a := base + mem.Addr(j*mem.LineSize)
					tx.Store(a, tx.Load(a)+1)
				}
			})
		}
	}
	m.Run(body, body, body, body)
	if v := r.TurboViolations(); v != 0 {
		t.Fatalf("turbo violations = %d, want 0 (more than one uninstrumented tx in a cohort)", v)
	}
	if n := counterTotal(t, reg, "cohorts/turbo_commits"); n == 0 {
		t.Fatal("turbo never engaged across a contended run")
	}
}

// TestTurboOffNeverEngages: the plain Cohorts configuration must never
// enter turbo mode.
func TestTurboOffNeverEngages(t *testing.T) {
	m, r := newRT(t, 4, false)
	reg := metrics.New(4)
	r.SetMetrics(reg)
	body := func(c *sim.CPU) {
		base := mem.Addr(0x20000 + c.ID()*0x4000)
		for i := 0; i < 30; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				tx.Store(base, tx.Load(base)+1)
			})
		}
	}
	m.Run(body, body, body, body)
	if n := counterTotal(t, reg, "cohorts/turbo_commits"); n != 0 {
		t.Fatalf("turbo commits = %d with Turbo disabled", n)
	}
}

// TestReadOnlyLeavesWithoutSealing: read-only transactions exit their
// cohort without sealing (no batch is formed just to read).
func TestReadOnlyLeavesWithoutSealing(t *testing.T) {
	m, r := newRT(t, 2, false)
	reg := metrics.New(2)
	r.SetMetrics(reg)
	var sum mem.Word
	body := func(c *sim.CPU) {
		for i := 0; i < 20; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				sum = tx.Load(0x3000) + tx.Load(0x3040)
			})
		}
	}
	m.Run(body, body)
	_ = sum
	var total tm.Stats
	for i := 0; i < 2; i++ {
		total.Add(r.Stats(i))
	}
	if total.Commits != 40 {
		t.Fatalf("commits = %d, want 40", total.Commits)
	}
	if total.Seals != 0 {
		t.Fatalf("seals = %d for a read-only workload, want 0", total.Seals)
	}
	if n := counterTotal(t, reg, "cohorts/ro_commits"); n != 40 {
		t.Fatalf("ro_commits = %d, want 40", n)
	}
}

// TestBecomeIrrevocableDrainsToSolo is the ABI answer the issue requires:
// a Cohorts transaction that requests irrevocability must not panic — it
// unwinds, drains the live cohorts, and re-runs as a solo cohort.
func TestBecomeIrrevocableDrainsToSolo(t *testing.T) {
	m, r := newRT(t, 4, true)
	reg := metrics.New(4)
	r.SetMetrics(reg)
	soloRuns := 0
	irrevocable := func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			tx.Store(0x9000, tx.Load(0x9000)+1)
			if tx.Irrevocable() {
				soloRuns++
				return
			}
			tx.(tm.Irrevocably).BecomeIrrevocable()
			t.Error("unreachable: BecomeIrrevocable returned on the instrumented path")
		})
	}
	noise := func(c *sim.CPU) {
		base := mem.Addr(0x30000 + c.ID()*0x4000)
		for i := 0; i < 30; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				tx.Store(base, tx.Load(base)+1)
			})
		}
	}
	m.Run(irrevocable, noise, noise, noise)
	if soloRuns != 1 {
		t.Fatalf("solo body runs = %d, want 1", soloRuns)
	}
	if got := m.Mem.Load(0x9000); got != 1 {
		t.Fatalf("value = %d, want 1 (aborted attempt leaked a store?)", got)
	}
	var total tm.Stats
	for i := 0; i < 4; i++ {
		total.Add(r.Stats(i))
	}
	if total.Serial != 1 {
		t.Fatalf("serial commits = %d, want exactly 1", total.Serial)
	}
	if n := counterTotal(t, reg, "cohorts/solo_entries"); n != 1 {
		t.Fatalf("solo_entries = %d, want 1", n)
	}
	st, se, fi, or := r.Counters()
	if st != 0 || se != 0 || fi != 0 || or != 0 {
		t.Fatalf("cohort counters not drained after solo: %d %d %d %d", st, se, fi, or)
	}
	if m.Mem.Load(r.solo) != 0 {
		t.Fatal("solo latch left held")
	}
}

// TestFlatNesting: a nested Atomic must run inside the enclosing
// transaction, not form a second cohort member.
func TestFlatNesting(t *testing.T) {
	m, r := newRT(t, 1, false)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			tx.Store(0xE000, 1)
			r.Atomic(c, func(inner tm.Tx) {
				inner.Store(0xE008, 2)
			})
			tx.Store(0xE010, 3)
		})
	})
	if m.Mem.Load(0xE000) != 1 || m.Mem.Load(0xE008) != 2 || m.Mem.Load(0xE010) != 3 {
		t.Fatal("nested stores lost")
	}
	if st := r.Stats(0); st.Commits != 1 {
		t.Fatalf("commits = %d, want 1 (flat nesting)", st.Commits)
	}
}

// TestAllocInsideTransaction: the heap refills inline (writes are
// buffered, so nothing speculative is at risk).
func TestAllocInsideTransaction(t *testing.T) {
	m, r := newRT(t, 1, false)
	var a mem.Addr
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			a = tx.Alloc(64)
			tx.Store(a, 9)
		})
	})
	if got := m.Mem.Load(a); got != 9 {
		t.Fatalf("value = %d", got)
	}
	if st := r.Stats(0); st.Commits != 1 || st.MallocAborts != 0 {
		t.Fatalf("stats = %+v, want one commit and no malloc aborts", st)
	}
}

// TestDeterminism: two identical machines running the same contended
// workload must agree exactly on simulated time and outcome counters.
func TestDeterminism(t *testing.T) {
	for _, turbo := range []bool{false, true} {
		run := func() (uint64, tm.Stats) {
			m, r := newRT(t, 4, turbo)
			body := func(c *sim.CPU) {
				for i := 0; i < 40; i++ {
					r.Atomic(c, func(tx tm.Tx) {
						tx.Store(0xB000, tx.Load(0xB000)+1)
						tx.Store(0xB000+mem.Addr(c.ID())*mem.LineSize+0x100, mem.Word(i))
					})
				}
			}
			d := m.Run(body, body, body, body)
			var total tm.Stats
			for i := 0; i < 4; i++ {
				total.Add(r.Stats(i))
			}
			return d, total
		}
		d1, s1 := run()
		d2, s2 := run()
		if d1 != d2 || s1 != s2 {
			t.Fatalf("turbo=%v nondeterministic: %d/%+v vs %d/%+v", turbo, d1, s1, d2, s2)
		}
	}
}
