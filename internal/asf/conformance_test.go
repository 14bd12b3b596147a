package asf

// Conformance tests for the corner cases the ASF specification pins down
// (§2.2) beyond the main semantics covered in asf_test.go.

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
)

func TestNestingDepthLimit(t *testing.T) {
	m, s := testSystem(t, 1, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		var dive func(d int)
		overflowed := false
		dive = func(d int) {
			reason, _ := u.Region(func() {
				if d < MaxNesting+2 {
					dive(d + 1)
				}
			})
			if d == 0 && reason == sim.AbortNesting {
				overflowed = true
			}
		}
		dive(0)
		if !overflowed {
			t.Error("nesting past the 256 limit did not abort")
		}
		// The unit must be usable again afterwards.
		reason, _ := u.Region(func() { u.Store(0x100, 1) })
		if reason != sim.AbortNone {
			t.Errorf("region after nesting abort failed: %v", reason)
		}
	})
}

func TestReleaseOfUnprotectedLineIsHarmless(t *testing.T) {
	// RELEASE is strictly a hint; releasing something never protected
	// must not fault or disturb the region.
	m, s := testSystem(t, 1, LLB8)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ := u.Region(func() {
			u.Load(0x200)
			u.Release(0x9999999 & ^mem.Addr(7))
			u.Store(0x200, 1)
		})
		if reason != sim.AbortNone {
			t.Errorf("reason = %v", reason)
		}
	})
	if m.Mem.Load(0x200) != 1 {
		t.Fatal("store lost")
	}
}

func TestReleasedLineNoLongerConflicts(t *testing.T) {
	// After RELEASE, a remote store to the line must not abort us.
	m, s := testSystem(t, 2, LLB256)
	var reason sim.AbortReason
	m.Run(
		func(c *sim.CPU) {
			u := s.Unit(0)
			reason, _ = u.Region(func() {
				u.Load(0x300)
				u.Release(0x300)
				c.Cycles(100_000)
				u.Load(0x340) // different line; deliver any pending abort
			})
		},
		func(c *sim.CPU) {
			c.Cycles(10_000)
			c.Store(0x300, 7)
		},
	)
	if reason != sim.AbortNone {
		t.Fatalf("released line still conflicted: %v", reason)
	}
	if m.Mem.Load(0x300) != 7 {
		t.Fatal("remote store lost")
	}
}

func TestBackToBackRegionsReuseUnit(t *testing.T) {
	m, s := testSystem(t, 1, LLB8)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		for i := 0; i < 50; i++ {
			reason, _ := u.Region(func() {
				a := mem.Addr(0x400 + (i%4)*mem.LineSize)
				u.Store(a, u.Load(a)+1)
			})
			if reason != sim.AbortNone {
				t.Fatalf("iteration %d: %v", i, reason)
			}
		}
	})
	var sum mem.Word
	for i := 0; i < 4; i++ {
		sum += m.Mem.Load(mem.Addr(0x400 + i*mem.LineSize))
	}
	if sum != 50 {
		t.Fatalf("sum = %d, want 50", sum)
	}
}

func TestAbortReasonReportedLikeSpeculateStatus(t *testing.T) {
	// The revised ASF reports errors via SPECULATE's status rather than
	// exceptions (§3.4): Region surfaces (reason, code) to software.
	m, s := testSystem(t, 1, LLB8)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		for _, want := range []struct {
			reason sim.AbortReason
			code   uint64
		}{
			{sim.AbortExplicit, 7},
			{sim.AbortCapacity, 0},
		} {
			reason, code := u.Region(func() {
				switch want.reason {
				case sim.AbortExplicit:
					u.Abort(7)
				default:
					for i := 0; i < 16; i++ {
						u.Store(mem.Addr(0x1000+i*mem.LineSize), 1)
					}
				}
			})
			if reason != want.reason || code != want.code {
				t.Errorf("got (%v,%d), want (%v,%d)", reason, code, want.reason, want.code)
			}
		}
	})
}

func TestStrongIsolationAgainstPlainRMW(t *testing.T) {
	// Atomic RMWs (CMPXCHG) by non-transactional code must conflict with
	// speculative readers of the line, like any store.
	m, s := testSystem(t, 2, LLB256)
	var reason sim.AbortReason
	m.Run(
		func(c *sim.CPU) {
			u := s.Unit(0)
			reason, _ = u.Region(func() {
				u.Load(0x500)
				c.Cycles(100_000)
				u.Load(0x500)
			})
		},
		func(c *sim.CPU) {
			c.Cycles(10_000)
			c.CAS(0x500, 0, 9)
		},
	)
	if reason != sim.AbortContention {
		t.Fatalf("CAS did not conflict: %v", reason)
	}
	if m.Mem.Load(0x500) != 9 {
		t.Fatal("CAS lost")
	}
}

func TestSpeculativeValuesVisibleToOwnPlainLoads(t *testing.T) {
	// Within a region, plain loads of a speculatively written line see
	// the speculative value (the core reads its own store queue/cache).
	m, s := testSystem(t, 1, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ := u.Region(func() {
			u.Store(0x600, 42)
			if got := c.Load(0x608); got != 0 {
				t.Errorf("other word on line = %d", got)
			}
			if got := c.Load(0x600); got != 42 {
				t.Errorf("own plain load of spec store = %d, want 42", got)
			}
			u.Abort(1)
		})
		if reason != sim.AbortExplicit {
			t.Errorf("reason = %v", reason)
		}
	})
	if m.Mem.Load(0x600) != 0 {
		t.Fatal("speculative value survived abort")
	}
}

// TestRegionStatsCount: the asf/starts, asf/commits and asf/aborts/*
// counters are the one record of region outcomes, and a registry reset (the
// measured-phase barrier) clears them.
func TestRegionStatsCount(t *testing.T) {
	m, s := testSystem(t, 1, LLB8)
	reg := metrics.New(1)
	s.SetMetrics(reg)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		for i := 0; i < 5; i++ {
			u.Region(func() { u.Store(0x700, 1) })
		}
		u.Region(func() { u.Abort(1) })
	})
	total := func(name string) uint64 {
		c, ok := reg.Snapshot().Counter(name)
		if !ok {
			t.Fatalf("no counter %s", name)
		}
		return c.Total
	}
	explicit := "asf/aborts/" + sim.AbortExplicit.String()
	if st, cm, ab := total("asf/starts"), total("asf/commits"), total(explicit); st != 6 || cm != 5 || ab != 1 {
		t.Fatalf("starts %d commits %d explicit aborts %d, want 6, 5, 1", st, cm, ab)
	}
	reg.Reset()
	if st := total("asf/starts"); st != 0 {
		t.Fatalf("starts = %d after Reset", st)
	}
}
