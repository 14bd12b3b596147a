package asftm

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
	return m, New(sys, heap, m, layout)
}

func TestCommitPublishes(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB256)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			tx.Store(0x100, 5)
		})
	})
	if got := m.Mem.Load(0x100); got != 5 {
		t.Fatalf("value = %d", got)
	}
	if st := r.Stats(0); st.Commits != 1 || st.Serial != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCapacityGoesSerialImmediately(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB8)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			for i := 0; i < 20; i++ {
				tx.Store(mem.Addr(0x1000+i*mem.LineSize), 1)
			}
		})
	})
	st := r.Stats(0)
	if st.Aborts[sim.AbortCapacity] != 1 {
		t.Fatalf("capacity aborts = %d, want exactly 1 (no pointless retries)", st.Aborts[sim.AbortCapacity])
	}
	if st.Serial != 1 {
		t.Fatalf("serial = %d", st.Serial)
	}
	for i := 0; i < 20; i++ {
		if m.Mem.Load(mem.Addr(0x1000+i*mem.LineSize)) != 1 {
			t.Fatal("serial fallback lost a store")
		}
	}
}

func TestMallocRefillAbortsOnce(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB256)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			// The pool starts empty, so the first allocation forces a
			// refill abort; the retry succeeds from the refilled pool.
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
	// ASF-TM counts a refill abort in MallocAborts only, outside
	// TotalAborts: Fig. 6's total adds MallocAborts back.
	if st.MallocAborts != 1 || st.Aborts[sim.AbortExplicit] != 0 {
		t.Fatalf("malloc aborts = %d, explicit aborts = %d; want 1 and 0",
			st.MallocAborts, st.Aborts[sim.AbortExplicit])
	}
}

func TestSerialTokenAbortsHardwareRegions(t *testing.T) {
	// One thread goes serial (capacity); a concurrently running hardware
	// transaction must be aborted by the token CAS and re-execute.
	m, r := newRT(t, 2, asf.LLB8)
	const rounds = 60
	m.Run(
		func(c *sim.CPU) { // capacity hog: always serial
			for i := 0; i < rounds; i++ {
				r.Atomic(c, func(tx tm.Tx) {
					for j := 0; j < 20; j++ {
						a := mem.Addr(0x4000 + j*mem.LineSize)
						tx.Store(a, tx.Load(a)+1)
					}
				})
			}
		},
		func(c *sim.CPU) { // small hardware transactions
			for i := 0; i < rounds*4; i++ {
				r.Atomic(c, func(tx tm.Tx) {
					tx.Store(0x8000, tx.Load(0x8000)+1)
				})
			}
		},
	)
	if got := m.Mem.Load(0x8000); got != rounds*4 {
		t.Fatalf("hw counter = %d, want %d", got, rounds*4)
	}
	for j := 0; j < 20; j++ {
		if got := m.Mem.Load(mem.Addr(0x4000 + j*mem.LineSize)); got != rounds {
			t.Fatalf("serial line %d = %d, want %d", j, got, rounds)
		}
	}
	st := r.Stats(1)
	if st.Aborts[sim.AbortContention] == 0 {
		t.Fatal("hardware transactions never yielded to the serial token")
	}
}

func TestBecomeIrrevocable(t *testing.T) {
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
	if st := r.Stats(0); st.Serial != 1 {
		t.Fatalf("serial = %d", st.Serial)
	}
}

func TestEarlyReleaseExposedOnHardwarePath(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB8)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			rel := tx.(*Tx)
			var prev mem.Addr
			for i := 0; i < 32; i++ { // 32 lines through an 8-entry LLB
				a := mem.Addr(0xA000 + i*mem.LineSize)
				tx.Load(a)
				if prev != 0 {
					rel.Release(prev)
				}
				prev = a
			}
		})
	})
	st := r.Stats(0)
	if st.Serial != 0 || st.Aborts[sim.AbortCapacity] != 0 {
		t.Fatalf("early release failed: %+v", st)
	}
}

func TestAbortWasteAccounting(t *testing.T) {
	// Two writers on one line: the loser's attempt cycles must land in
	// the abort/restart category.
	m, r := newRT(t, 2, asf.LLB256)
	body := func(c *sim.CPU) {
		for i := 0; i < 150; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				tx.CPU().Exec(300)
				tx.Store(0xB000, tx.Load(0xB000)+1)
			})
		}
	}
	m.Run(body, body)
	var b sim.Breakdown
	for i := 0; i < 2; i++ {
		b = b.Add(m.CPU(i).Counters())
	}
	if b[sim.CatAbort] == 0 {
		t.Fatal("no cycles attributed to abort/restart despite contention")
	}
}

// TestMaxHWAttemptsHonored: a transaction that aborts on every hardware
// attempt must make exactly maxHWAttempts attempts before falling back to
// serial-irrevocable mode — the bound, not one more (this was an
// off-by-one: `attempts > max` allowed max+1 attempts).
func TestMaxHWAttemptsHonored(t *testing.T) {
	m, r := newRT(t, 1, asf.LLB256)

	hw, serial := 0, 0
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			if tx.Irrevocable() {
				serial++
				return
			}
			hw++
			tx.(*Tx).u.Abort(0xDEAD) // retryable explicit abort, no back-off
		})
	})
	if hw != maxHWAttempts || serial != 1 {
		t.Fatalf("hardware attempts = %d, serial runs = %d; want exactly %d and 1",
			hw, serial, maxHWAttempts)
	}
	st := r.Stats(0)
	if st.Commits != 1 || st.Serial != 1 {
		t.Fatalf("stats = %+v, want one serial commit", st)
	}
	if st.Aborts[sim.AbortExplicit] != maxHWAttempts {
		t.Fatalf("explicit aborts = %d, want %d", st.Aborts[sim.AbortExplicit], maxHWAttempts)
	}
}
