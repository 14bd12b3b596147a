package asf

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// capLine returns the i-th line the capacity tests protect; lines 0 to 511
// fall in distinct sets of the Barcelona L1 (64 KB, 2-way, 512 sets).
func capLine(i int) mem.Addr { return mem.Addr(0x40000 + i*mem.LineSize) }

// holdLLBLines runs one region that gives the LLB n lines, then reports
// how it ended (retrying timer interrupts). On the pure-LLB variants the
// lines alternate reads and writes; ASF1 reads them all and then writes
// the first, since it protects no new line after its first store. The
// hybrid variants' LLB holds written lines only, so they write n lines and
// also read 8 more, each in an L1 set of its own.
func holdLLBLines(t *testing.T, v Variant, n int) (sim.AbortReason, *sim.Machine, *System) {
	t.Helper()
	m, s := testSystem(t, 1, v)
	reason := sim.AbortInterrupt
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		for try := 0; try < 3 && reason == sim.AbortInterrupt; try++ {
			reason, _ = u.Region(func() {
				switch {
				case v.L1ReadSet:
					for i := 0; i < 8; i++ {
						u.Load(capLine(n + i))
					}
					for i := 0; i < n; i++ {
						u.Store(capLine(i), mem.Word(i+1))
					}
				case v.ASF1:
					for i := 0; i < n; i++ {
						u.Load(capLine(i))
					}
					u.Store(capLine(0), 1)
				default:
					for i := 0; i < n; i++ {
						if i%2 == 0 {
							u.Load(capLine(i))
						} else {
							u.Store(capLine(i), mem.Word(i+1))
						}
					}
				}
			})
		}
	})
	return reason, m, s
}

// TestLLBCapacityIsExact: on every variant with an LLB, a solo region that
// holds exactly LLBEntries LLB lines commits, and one more line aborts it
// with a capacity abort that rolls every store back.
func TestLLBCapacityIsExact(t *testing.T) {
	for _, v := range AllVariants {
		if v.LLBEntries == 0 {
			continue
		}
		t.Run(v.Name, func(t *testing.T) {
			n := v.LLBEntries
			reason, m, s := holdLLBLines(t, v, n)
			if reason != sim.AbortNone {
				t.Fatalf("%d LLB lines: reason = %v, want commit", n, reason)
			}
			if got := cap(s.Unit(0).llb); got != n {
				t.Errorf("LLB capacity %d, want %d", got, n)
			}
			if got := m.Mem.Load(capLine(1)); got != 2 && !v.ASF1 {
				t.Errorf("line 1 = %d after commit, want 2", got)
			}
			reason, m, s = holdLLBLines(t, v, n+1)
			if reason != sim.AbortCapacity {
				t.Fatalf("%d LLB lines: reason = %v, want capacity", n+1, reason)
			}
			for i := 0; i <= n; i++ {
				if got := m.Mem.Load(capLine(i)); got != 0 {
					t.Fatalf("line %d = %d after the capacity abort, want 0", i, got)
				}
			}
			if s.ProtectedLines() != 0 {
				t.Errorf("%d lines still protected after the abort", s.ProtectedLines())
			}
		})
	}
}

// TestWriteSetRollsBackPastInitialList: a 20-line write set, more than a
// unit's initial write list holds, rolls every line back on abort.
func TestWriteSetRollsBackPastInitialList(t *testing.T) {
	const lines = 20
	m, s := testSystem(t, 1, LLB256)
	for i := 0; i < lines; i++ {
		m.Mem.Store(capLine(i)+8, mem.Word(100+i))
	}
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ := u.Region(func() {
			for i := 0; i < lines; i++ {
				u.Store(capLine(i)+8, 7)
			}
			u.Abort(1)
		})
		if reason != sim.AbortExplicit {
			t.Errorf("reason = %v, want explicit", reason)
		}
	})
	for i := 0; i < lines; i++ {
		if got := m.Mem.Load(capLine(i) + 8); got != mem.Word(100+i) {
			t.Errorf("line %d = %d after rollback, want %d", i, got, 100+i)
		}
	}
}

// TestWriteListGrowthKeepsOtherCoresBackups: the units' write lists start
// as adjacent segments of one slab. Core 0's write set outgrows its
// segment while core 1's region holds backups in the next one; core 1's
// rollback must still restore its own lines, and core 0's commit must
// stand.
func TestWriteListGrowthKeepsOtherCoresBackups(t *testing.T) {
	const mine, theirs = 4, 12
	m, s := testSystem(t, 2, LLB256)
	line1 := func(i int) mem.Addr { return capLine(i) }
	line0 := func(i int) mem.Addr { return capLine(64 + i) }
	for i := 0; i < mine; i++ {
		m.Mem.Store(line1(i), mem.Word(100+i))
	}
	m.Run(
		func(c *sim.CPU) {
			c.Cycles(20_000) // after core 1 has written its lines
			u := s.Unit(0)
			reason, _ := u.Region(func() {
				for i := 0; i < theirs; i++ {
					u.Store(line0(i), mem.Word(500+i))
				}
			})
			if reason != sim.AbortNone {
				t.Errorf("core 0: reason = %v, want commit", reason)
			}
		},
		func(c *sim.CPU) {
			u := s.Unit(1)
			reason, _ := u.Region(func() {
				for i := 0; i < mine; i++ {
					u.Store(line1(i), 7)
				}
				c.Cycles(200_000) // core 0's region runs meanwhile
				u.Abort(1)
			})
			if reason != sim.AbortExplicit {
				t.Errorf("core 1: reason = %v, want explicit", reason)
			}
		},
	)
	if got := cap(s.Unit(0).writes); got < theirs {
		t.Fatalf("core 0's write list has capacity %d, want it grown to %d", got, theirs)
	}
	for i := 0; i < mine; i++ {
		if got := m.Mem.Load(line1(i)); got != mem.Word(100+i) {
			t.Errorf("core 1's line %d = %d after its rollback, want %d", i, got, 100+i)
		}
	}
	for i := 0; i < theirs; i++ {
		if got := m.Mem.Load(line0(i)); got != mem.Word(500+i) {
			t.Errorf("core 0's line %d = %d after its commit, want %d", i, got, 500+i)
		}
	}
}
