package hytm

import (
	"testing"

	"asfstack/internal/asf"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

func newRT(t *testing.T, cores int, v asf.Variant) (*sim.Machine, *Runtime) {
	t.Helper()
	m := sim.New(sim.Barcelona(cores))
	m.Mem.Prefault(0, 1<<21)
	sys := asf.Install(m, v)
	layout := mem.NewLayout(1 << 22)
	heap := tm.NewHeap(m.Mem, layout, cores, 16<<20)
	return m, New(sys, heap, m, layout, "HyTM-test")
}

func TestHardwareCommitPublishes(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB256)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			tx.Store(0x100, 5)
		})
	})
	if got := m.Mem.Load(0x100); got != 5 {
		t.Fatalf("value = %d", got)
	}
	st := r.Stats(0)
	if st.Commits != 1 || st.SWCommits != 0 || st.Serial != 0 {
		t.Fatalf("stats = %+v, want one pure hardware commit", st)
	}
}

func TestCapacityFallsBackToSoftwareNotSerial(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB8)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			for i := 0; i < 20; i++ {
				a := mem.Addr(0x1000 + i*mem.LineSize)
				tx.Store(a, tx.Load(a)+1)
			}
		})
	})
	st := r.Stats(0)
	if st.Aborts[sim.AbortCapacity] != 1 {
		t.Fatalf("capacity aborts = %d, want exactly 1 (immediate fallback)", st.Aborts[sim.AbortCapacity])
	}
	if st.SWCommits != 1 || st.Serial != 0 {
		t.Fatalf("stats = %+v, want one software commit and no serial", st)
	}
	for i := 0; i < 20; i++ {
		if m.Mem.Load(mem.Addr(0x1000+i*mem.LineSize)) != 1 {
			t.Fatal("software fallback lost a store")
		}
	}
}

// TestSoftwareFallbacksRunConcurrently is the subsystem's reason to exist:
// two capacity-doomed threads on disjoint data must both commit on the
// software path with zero serial-irrevocable entries (under ASF-TM every
// one of these transactions would convoy behind the global token).
func TestSoftwareFallbacksRunConcurrently(t *testing.T) {
	m, r := newRT(t, 2, asf.LLB8)
	const rounds = 40
	hog := func(base mem.Addr) func(c *sim.CPU) {
		return func(c *sim.CPU) {
			for i := 0; i < rounds; i++ {
				r.Atomic(c, func(tx tm.Tx) {
					for j := 0; j < 20; j++ {
						a := base + mem.Addr(j*mem.LineSize)
						tx.Store(a, tx.Load(a)+1)
					}
				})
			}
		}
	}
	m.Run(hog(0x10000), hog(0x40000))
	var total tm.Stats
	for i := 0; i < 2; i++ {
		total.Add(r.Stats(i))
	}
	if total.Serial != 0 {
		t.Fatalf("serial entries = %d, want 0 (fallback must be concurrent)", total.Serial)
	}
	if total.SWCommits != 2*rounds {
		t.Fatalf("software commits = %d, want %d", total.SWCommits, 2*rounds)
	}
	for _, base := range []mem.Addr{0x10000, 0x40000} {
		for j := 0; j < 20; j++ {
			if got := m.Mem.Load(base + mem.Addr(j*mem.LineSize)); got != rounds {
				t.Fatalf("line %d = %d, want %d", j, got, rounds)
			}
		}
	}
}

// TestMixedPathsOneCounter is the atomicity torture test: hardware and
// software transactions increment the same word; no increment may be lost
// regardless of which path commits it.
func TestMixedPathsOneCounter(t *testing.T) {
	m, r := newRT(t, 4, asf.LLB8)
	const (
		ctr      = mem.Addr(0xB000)
		hwRounds = 120
		swRounds = 30
	)
	hw := func(c *sim.CPU) {
		for i := 0; i < hwRounds; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				tx.Store(ctr, tx.Load(ctr)+1)
			})
		}
	}
	sw := func(base mem.Addr) func(c *sim.CPU) {
		return func(c *sim.CPU) {
			for i := 0; i < swRounds; i++ {
				r.Atomic(c, func(tx tm.Tx) {
					for j := 0; j < 20; j++ { // overflow LLB-8: software path
						a := base + mem.Addr(j*mem.LineSize)
						tx.Store(a, tx.Load(a)+1)
					}
					tx.Store(ctr, tx.Load(ctr)+1)
				})
			}
		}
	}
	m.Run(hw, hw, sw(0x20000), sw(0x60000))
	want := mem.Word(2*hwRounds + 2*swRounds)
	if got := m.Mem.Load(ctr); got != want {
		t.Fatalf("counter = %d, want %d (lost updates across paths)", got, want)
	}
	var total tm.Stats
	for i := 0; i < 4; i++ {
		total.Add(r.Stats(i))
	}
	if total.SWCommits != 2*swRounds {
		t.Fatalf("software commits = %d, want %d", total.SWCommits, 2*swRounds)
	}
	if hwCommits := total.Commits - total.SWCommits - total.Serial; hwCommits == 0 {
		t.Fatal("no hardware commits despite the small transactions")
	}
	if total.SeqAborts == 0 {
		t.Fatal("no seqlock-induced aborts recorded despite software commits racing hardware")
	}
}

func TestMallocRefillAbortsOnce(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB256)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			a := tx.Alloc(64)
			tx.Store(a, 9)
		})
	})
	st := r.Stats(0)
	if st.MallocAborts == 0 {
		t.Fatal("no malloc-refill abort recorded")
	}
	if st.Commits != 1 {
		t.Fatalf("commits = %d", st.Commits)
	}
	// HyTM counts a refill abort in MallocAborts and in the explicit
	// hardware aborts as well (ASF-TM counts it in MallocAborts only).
	if st.MallocAborts != 1 || st.Aborts[sim.AbortExplicit] != 1 {
		t.Fatalf("malloc aborts = %d, explicit aborts = %d; want 1 and 1",
			st.MallocAborts, st.Aborts[sim.AbortExplicit])
	}
}

func TestBecomeIrrevocableGoesSerial(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB256)
	runs := 0
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			runs++
			tx.Store(0x9000, mem.Word(runs))
			if !tx.Irrevocable() {
				tx.(tm.Irrevocably).BecomeIrrevocable()
				t.Error("unreachable: BecomeIrrevocable returned")
			}
		})
	})
	if runs != 2 {
		t.Fatalf("body ran %d times, want 2", runs)
	}
	if got := m.Mem.Load(0x9000); got != 2 {
		t.Fatalf("value = %d (first attempt leaked?)", got)
	}
	st := r.Stats(0)
	if st.Serial != 1 || st.SWCommits != 0 {
		t.Fatalf("stats = %+v, want exactly one serial commit", st)
	}
}

// TestBecomeIrrevocableFromSoftware: the escalation must also work when the
// request happens on the software path (capacity-overflowed transaction
// calling a non-transactional-safe function).
func TestBecomeIrrevocableFromSoftware(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB8)
	serialRuns := 0
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			for i := 0; i < 20; i++ { // overflow LLB-8 first
				tx.Store(mem.Addr(0x3000+i*mem.LineSize), 7)
			}
			if tx.Irrevocable() {
				serialRuns++
				return
			}
			tx.(tm.Irrevocably).BecomeIrrevocable()
		})
	})
	st := r.Stats(0)
	if serialRuns != 1 || st.Serial != 1 {
		t.Fatalf("serialRuns = %d, stats = %+v, want one serial commit", serialRuns, st)
	}
	for i := 0; i < 20; i++ {
		if m.Mem.Load(mem.Addr(0x3000+i*mem.LineSize)) != 7 {
			t.Fatal("serial escalation lost a store")
		}
	}
}

// TestMaxHWAttemptsFallsBackToSoftware: exhausting the hardware attempt
// budget must land on the concurrent software path, not serial mode.
func TestMaxHWAttemptsFallsBackToSoftware(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB256)

	hw, sw := 0, 0
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			h := tx.(*Tx)
			if h.mode == modeHW {
				hw++
				h.u.Abort(0xDEAD) // retryable explicit abort
			}
			sw++
			tx.Store(0xC000, mem.Word(sw))
		})
	})
	if hw != maxHWAttempts || sw != 1 {
		t.Fatalf("hardware attempts = %d, software runs = %d; want %d and 1", hw, sw, maxHWAttempts)
	}
	st := r.Stats(0)
	if st.SWCommits != 1 || st.Serial != 0 {
		t.Fatalf("stats = %+v, want one software commit, no serial", st)
	}
	if got := m.Mem.Load(0xC000); got != 1 {
		t.Fatalf("value = %d", got)
	}
}

// TestReadOnlySoftwareCommitStaysOffSeqlock: a read-only fallback commit
// must not acquire the seqlock (it would needlessly abort every subscribed
// hardware region).
func TestReadOnlySoftwareCommitStaysOffSeqlock(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB8)
	var sum mem.Word
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			sum = 0
			for i := 0; i < 20; i++ { // read-set overflow: software path
				sum += tx.Load(mem.Addr(0x5000 + i*mem.LineSize))
			}
		})
	})
	st := r.Stats(0)
	if st.SWCommits != 1 {
		t.Fatalf("stats = %+v, want one software commit", st)
	}
	if got := m.Mem.Load(r.swSeq); got != 0 {
		t.Fatalf("swSeq = %d after read-only commit, want untouched 0", got)
	}
	_ = sum
}

// TestHwSeqElidedWithoutSoftware: with no software transaction ever
// present, hardware writers must not touch the hardware-commit counter
// (the hw-hw serialization it causes is only paid while someone listens).
func TestHwSeqElidedWithoutSoftware(t *testing.T) {
	m, r := newRT(t, 2, asf.LLB256)
	body := func(c *sim.CPU) {
		for i := 0; i < 50; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				tx.Store(0xD000+mem.Addr(c.ID())*mem.LineSize, mem.Word(i))
			})
		}
	}
	m.Run(body, body)
	if got := m.Mem.Load(r.hwSeq); got != 0 {
		t.Fatalf("hwSeq = %d with no software transactions, want 0", got)
	}
}

// TestFlatNesting: a nested Atomic must execute inside the enclosing
// transaction, not start a second region.
func TestFlatNesting(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB256)
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

// TestDeterminism: two identical machines running the same mixed hw/sw
// workload must agree exactly on simulated time and outcome counters.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, tm.Stats) {
		m, r := newRT(t, 4, asf.LLB8)
		hw := func(c *sim.CPU) {
			for i := 0; i < 60; i++ {
				r.Atomic(c, func(tx tm.Tx) {
					tx.Store(0xB000, tx.Load(0xB000)+1)
				})
			}
		}
		sw := func(c *sim.CPU) {
			for i := 0; i < 15; i++ {
				r.Atomic(c, func(tx tm.Tx) {
					for j := 0; j < 20; j++ {
						a := mem.Addr(0x20000 + j*mem.LineSize)
						tx.Store(a, tx.Load(a)+1)
					}
				})
			}
		}
		d := m.Run(hw, hw, sw, sw)
		var total tm.Stats
		for i := 0; i < 4; i++ {
			total.Add(r.Stats(i))
		}
		return d, total
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("nondeterministic: %d/%+v vs %d/%+v", d1, s1, d2, s2)
	}
}
