package asf

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// TestProtDirectoryFollowsProtectedLines: the protection directory holds
// the lines live regions protect, not every line ever protected. One core
// runs 100 regions that each read and write 200 fresh lines; after every
// region the directory holds at most twice the largest protected set plus
// protChunk entries, where keeping every line would reach 20,000.
func TestProtDirectoryFollowsProtectedLines(t *testing.T) {
	const regions, lines = 100, 200
	m, s := testSystem(t, 1, LLB256)
	high := 0
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
				high = max(high, len(s.prot))
				if reason == sim.AbortNone {
					break
				}
				if reason != sim.AbortInterrupt || try == 3 {
					t.Fatalf("region %d aborted: %v", r, reason)
				}
			}
		}
	})
	t.Logf("directory high-water mark %d entries over %d protected lines", high, regions*lines)
	if bound := 2*lines + protChunk; high > bound {
		t.Fatalf("directory reached %d entries, want at most %d", high, bound)
	}
	if n := s.ProtectedLines(); n != 0 {
		t.Fatalf("%d lines still protected after the last commit", n)
	}
}

// TestProtPurgeKeepsConflicts: a purge recycles quiescent entries, so it
// must empty the pcache, whose pointers may name them. A and B share a
// pcache slot, and D has a slot of its own. Core 0 protects A and D and
// commits, so both go quiescent with cached pointers. Core 1 then protects
// protChunk-2 fresh lines and B, whose insert purges and takes one of the
// two recycled entries; it also overwrites A's cached pointer, but not D's.
// Afterwards neither A nor D has an entry, and a conflicting write to A
// still aborts a core-0 region that reads it.
func TestProtPurgeKeepsConflicts(t *testing.T) {
	const (
		a    = mem.Addr(0x10000)
		b    = a + pcacheSlots*mem.LineSize
		d    = a + mem.LineSize
		fill = mem.Addr(0x40000) // pcache slots 0 up to protChunk-3
	)
	m, s := testSystem(t, 2, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		u.Region(func() {
			u.Load(a)
			u.Load(d)
		})
	})
	pa, pd := s.protLookup(a), s.protLookup(d)
	if pa == nil || pd == nil || !pa.quiescent() || !pd.quiescent() {
		t.Fatalf("after core 0's commit: entries %p and %p, want two quiescent ones", pa, pd)
	}
	m.Run(func(*sim.CPU) {}, func(c *sim.CPU) {
		u := s.Unit(1)
		u.Region(func() {
			for i := 0; i < protChunk-2; i++ {
				u.Load(fill + mem.Addr(i*mem.LineSize))
			}
			if len(s.prot) != protChunk {
				t.Fatalf("%d directory entries before B, want %d", len(s.prot), protChunk)
			}
			u.Load(b)
		})
	})
	if pb := s.prot[b]; pb != pa && pb != pd {
		t.Fatalf("B's entry %p is neither of the purged entries %p and %p", pb, pa, pd)
	}
	if p := s.protLookup(a); p != nil {
		t.Fatalf("protLookup(A) = %p after the purge, want nil", p)
	}
	if p := s.protLookup(d); p != nil {
		t.Fatalf("protLookup(D) = %p after the purge, want nil", p)
	}
	var reason sim.AbortReason
	m.Run(
		func(c *sim.CPU) {
			u := s.Unit(0)
			reason, _ = u.Region(func() {
				u.Load(a)
				c.Cycles(100_000) // stay inside while core 1 writes A
				u.Load(a)
			})
		},
		func(c *sim.CPU) {
			c.Cycles(10_000)
			c.Store(a, 1)
		},
	)
	if reason != sim.AbortContention {
		t.Fatalf("core 0's region read A and ended with %v after core 1 wrote A, want contention", reason)
	}
}
