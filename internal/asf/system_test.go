package asf

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// TestProtDirectoryFollowsProtectedLines: the protection directory holds
// the lines live regions protect, not every line ever protected. One core
// runs 100 regions that each read and write 200 fresh lines; the directory
// must keep its initial 1,024 slots throughout, where keeping every line
// would double it five times.
func TestProtDirectoryFollowsProtectedLines(t *testing.T) {
	const regions, lines = 100, 200
	m, s := testSystem(t, 1, LLB256)
	_, initial := s.prot.Live()
	high := initial
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		for r := 0; r < regions; r++ {
			// A timer interrupt may abort a region; run it again.
			for try := 0; ; try++ {
				reason, _ := u.Region(func() {
					for i := 0; i < lines; i++ {
						a := mem.Addr((r*lines + i) * mem.LineSize)
						if i%2 == 0 {
							u.Load(a)
						} else {
							u.Store(a, mem.Word(r))
						}
					}
				})
				_, slots := s.prot.Live()
				high = max(high, slots)
				if reason == sim.AbortNone {
					break
				}
				if reason != sim.AbortInterrupt || try == 3 {
					t.Fatalf("region %d aborted: %v", r, reason)
				}
			}
		}
	})
	t.Logf("directory high-water mark %d slots over %d protected lines", high, regions*lines)
	if initial != 1024 || high != initial {
		t.Fatalf("directory grew from %d to %d slots, want 1024 throughout", initial, high)
	}
	if n := s.ProtectedLines(); n != 0 {
		t.Fatalf("%d lines still protected after the last commit", n)
	}
}

// TestProtPurgeKeepsConflicts: a purge drops only lines no region protects.
// Core 0's long region writes A. Meanwhile core 1's regions read 1,600
// fresh lines: the table holds 768 lines before an insert must purge, and
// a purge keeps A, so a table that keeps its 1,024 slots has purged at
// least twice. A must keep its slot, owned by core 0, and a plain store to
// A from core 1 must still abort core 0's region. One line is protected
// while core 0's region runs, and none once the store has rolled it back.
func TestProtPurgeKeepsConflicts(t *testing.T) {
	const (
		a       = mem.Addr(0x10000)
		fill    = mem.Addr(0x40000)
		regions = 16
		lines   = 100 // per region; 16 × 100 = 1,600 fresh lines
	)
	m, s := testSystem(t, 2, LLB256)
	_, initial := s.prot.Live()
	var reason sim.AbortReason
	m.Run(
		func(c *sim.CPU) {
			u := s.Unit(0)
			reason, _ = u.Region(func() {
				u.Store(a, 1)
				c.Cycles(1_500_000) // stay inside while core 1 streams, below the 2.2M-cycle timer tick
				u.Load(a)
			})
		},
		func(c *sim.CPU) {
			c.Cycles(10_000)
			u := s.Unit(1)
			for r := 0; r < regions; r++ {
				if why, _ := u.Region(func() {
					for i := 0; i < lines; i++ {
						u.Load(fill + mem.Addr((r*lines+i)*mem.LineSize))
					}
				}); why != sim.AbortNone {
					t.Errorf("core 1's region %d aborted: %v", r, why)
					return
				}
			}
			c.SpecOp(0, func() {
				if _, slots := s.prot.Live(); slots != initial {
					t.Errorf("directory grew from %d to %d slots over %d fresh lines", initial, slots, regions*lines)
				}
				if p := s.prot.Find(a); p == nil || p.Owner() != 0 || p.Holders != 1 {
					t.Errorf("A's slot after the purges = %+v, want core 0 as owner and only holder", p)
				}
				if n := s.ProtectedLines(); n != 1 {
					t.Errorf("%d lines protected during core 0's region, want 1", n)
				}
			})
			t.Logf("core 1 ended its stream at cycle %d", c.Now())
			c.Store(a, 2)
			c.SpecOp(0, func() {
				if n := s.ProtectedLines(); n != 0 {
					t.Errorf("%d lines protected after the store rolled core 0 back, want 0", n)
				}
			})
		},
	)
	if reason != sim.AbortContention {
		t.Fatalf("core 0's region wrote A and ended with %v after core 1 wrote A, want contention", reason)
	}
	if n := s.ProtectedLines(); n != 0 {
		t.Fatalf("%d lines protected after core 0's region, want 0", n)
	}
}
