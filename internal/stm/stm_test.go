package stm

import (
	"testing"
	"testing/quick"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

func TestLockWordEncoding(t *testing.T) {
	f := func(core uint8, ts uint32) bool {
		l := lockedBy(int(core))
		if !isLocked(l) || lockOwner(l) != int(core) {
			return false
		}
		v := versionWord(uint64(ts))
		return !isLocked(v) && versionOf(v) == uint64(ts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newSTM(t *testing.T, cores int) (*sim.Machine, *Runtime) {
	t.Helper()
	m := sim.New(sim.Barcelona(cores))
	layout := mem.NewLayout(mem.PageSize)
	heap := tm.NewHeap(m.Mem, layout, cores, 16<<20)
	return m, New(m, heap, layout)
}

func TestReadYourOwnWrites(t *testing.T) {
	m, r := newSTM(t, 1)
	m.Mem.Prefault(0, 1<<20)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			tx.Store(0x100, 7)
			if got := tx.Load(0x100); got != 7 {
				t.Errorf("read own write = %d", got)
			}
			tx.Store(0x100, 9)
			if got := tx.Load(0x100); got != 9 {
				t.Errorf("second read = %d", got)
			}
		})
	})
	if got := m.Mem.Load(0x100); got != 9 {
		t.Fatalf("committed value = %d", got)
	}
}

func TestConflictingWritersSerialize(t *testing.T) {
	m, r := newSTM(t, 2)
	m.Mem.Prefault(0, 1<<20)
	const n = 200
	body := func(c *sim.CPU) {
		for i := 0; i < n; i++ {
			r.Atomic(c, func(tx tm.Tx) {
				tx.Store(0x200, tx.Load(0x200)+1)
			})
		}
	}
	m.Run(body, body)
	if got := m.Mem.Load(0x200); got != 2*n {
		t.Fatalf("counter = %d, want %d", got, 2*n)
	}
	st := r.Stats(0)
	st.Add(r.Stats(1))
	if st.STMAborts == 0 {
		t.Fatal("no conflicts detected on a contended counter")
	}
}

func TestSnapshotExtension(t *testing.T) {
	// A reader transaction whose snapshot must extend: another thread
	// commits between its reads of two locations; the reader must still
	// observe a consistent pair.
	m, r := newSTM(t, 2)
	m.Mem.Prefault(0, 1<<20)
	inconsistent := 0
	m.Run(
		func(c *sim.CPU) {
			for i := 0; i < 100; i++ {
				r.Atomic(c, func(tx tm.Tx) {
					a := tx.Load(0x300)
					c.Cycles(800) // let the writer slip in
					b := tx.Load(0x340)
					if a != b {
						inconsistent++
					}
				})
			}
		},
		func(c *sim.CPU) {
			for i := 0; i < 100; i++ {
				r.Atomic(c, func(tx tm.Tx) {
					v := tx.Load(0x300) + 1
					tx.Store(0x300, v)
					tx.Store(0x340, v)
				})
				c.Cycles(300)
			}
		},
	)
	if inconsistent != 0 {
		t.Fatalf("%d inconsistent snapshots (LSA extension broken)", inconsistent)
	}
}

func TestBecomeIrrevocableRestartsSerially(t *testing.T) {
	m, r := newSTM(t, 1)
	m.Mem.Prefault(0, 1<<20)
	runs := 0
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			runs++
			tx.Store(0x400, mem.Word(runs))
			if !tx.Irrevocable() {
				tx.(tm.Irrevocably).BecomeIrrevocable()
				t.Error("BecomeIrrevocable returned on a revocable tx")
			}
		})
	})
	if runs != 2 {
		t.Fatalf("body ran %d times, want 2 (restart as irrevocable)", runs)
	}
	if st := r.Stats(0); st.Serial != 1 {
		t.Fatalf("serial commits = %d", st.Serial)
	}
	if got := m.Mem.Load(0x400); got != 2 {
		t.Fatalf("value = %d (aborted attempt leaked?)", got)
	}
}

func TestReadOnlyTxCommitsWithoutClockTick(t *testing.T) {
	m, r := newSTM(t, 1)
	m.Mem.Prefault(0, 1<<20)
	m.Run(func(c *sim.CPU) {
		before := m.Mem.Load(r.clockAddr)
		r.Atomic(c, func(tx tm.Tx) {
			tx.Load(0x500)
			tx.Load(0x540)
		})
		if after := m.Mem.Load(r.clockAddr); after != before {
			t.Errorf("read-only commit advanced the clock %d -> %d", before, after)
		}
	})
}

func TestUndoReleasesAtFreshVersion(t *testing.T) {
	// After an abort, the lock version must be newer than before the
	// attempt (the ABA guard), so concurrent readers bracketing the
	// write+undo window fail validation.
	m, r := newSTM(t, 1)
	m.Mem.Prefault(0, 1<<20)
	m.Run(func(c *sim.CPU) {
		la := r.lockFor(0x600)
		before := m.Mem.Load(la)
		t0 := r.descs[0]
		t0.c = c
		t0.begin()
		t0.Store(0x600, 42)
		t0.undo()
		t0.reset()
		after := m.Mem.Load(la)
		if isLocked(after) {
			t.Fatal("lock still held after undo")
		}
		if versionOf(after) <= versionOf(before) {
			t.Fatalf("undo released at version %d (was %d): ABA", versionOf(after), versionOf(before))
		}
		if got := m.Mem.Load(0x600); got != 0 {
			t.Fatalf("value = %d after undo", got)
		}
	})
}

// TestUndoLogHoldsAddressAndOldValue: each undo-log entry in simulated
// memory holds the written address and the value it replaced, one word
// each.
func TestUndoLogHoldsAddressAndOldValue(t *testing.T) {
	m, r := newSTM(t, 1)
	m.Mem.Prefault(0, 1<<20)
	m.Mem.Store(0x100, 11)
	m.Mem.Store(0x208, 22)
	m.Run(func(c *sim.CPU) {
		r.Atomic(c, func(tx tm.Tx) {
			tx.Store(0x100, 1)
			tx.Store(0x208, 2)
		})
	})
	for i, want := range []struct {
		addr mem.Addr
		old  mem.Word
	}{{0x100, 11}, {0x208, 22}} {
		slot := r.descs[0].log.WriteSlot(i, 2*mem.WordSize)
		if a, old := m.Mem.Load(slot), m.Mem.Load(slot+mem.WordSize); a != mem.Word(want.addr) || old != want.old {
			t.Errorf("undo-log entry %d = (%#x, %d), want (%#x, %d)", i, a, old, uint64(want.addr), want.old)
		}
	}
}
