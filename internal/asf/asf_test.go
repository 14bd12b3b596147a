package asf

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
)

func testSystem(t *testing.T, cores int, v Variant) (*sim.Machine, *System) {
	t.Helper()
	cfg := sim.Barcelona(cores)
	m := sim.New(cfg)
	m.Mem.Prefault(0, 1<<21)
	return m, Install(m, v)
}

func TestRegionCommitsStores(t *testing.T) {
	for _, v := range Variants {
		t.Run(v.Name, func(t *testing.T) {
			m, s := testSystem(t, 1, v)
			reg := metrics.New(1)
			s.SetMetrics(reg)
			m.Run(func(c *sim.CPU) {
				u := s.Unit(0)
				reason, _ := u.Region(func() {
					u.Store(0x100, 7)
					u.Store(0x140, 8)
				})
				if reason != sim.AbortNone {
					t.Errorf("region aborted: %v", reason)
				}
			})
			if got := m.Mem.Load(0x100); got != 7 {
				t.Errorf("mem[0x100] = %d, want 7", got)
			}
			if c, _ := reg.Snapshot().Counter("asf/commits"); c.Total != 1 {
				t.Errorf("asf/commits = %d, want 1", c.Total)
			}
			if s.ProtectedLines() != 0 {
				t.Errorf("%d lines still protected after commit", s.ProtectedLines())
			}
		})
	}
}

func TestExplicitAbortRollsBack(t *testing.T) {
	for _, v := range Variants {
		t.Run(v.Name, func(t *testing.T) {
			m, s := testSystem(t, 1, v)
			m.Run(func(c *sim.CPU) {
				c.Store(0x200, 1)
				u := s.Unit(0)
				reason, code := u.Region(func() {
					u.Store(0x200, 99)
					u.Abort(0xDEAD)
				})
				if reason != sim.AbortExplicit || code != 0xDEAD {
					t.Errorf("reason=%v code=%#x, want explicit/0xDEAD", reason, code)
				}
			})
			if got := m.Mem.Load(0x200); got != 1 {
				t.Errorf("mem[0x200] = %d after abort, want 1 (rolled back)", got)
			}
			if s.ProtectedLines() != 0 {
				t.Errorf("%d lines still protected after abort", s.ProtectedLines())
			}
		})
	}
}

func TestRequesterWinsPlainReadAbortsWriter(t *testing.T) {
	m, s := testSystem(t, 2, LLB256)
	const addr = 0x300
	var seen mem.Word
	var reason sim.AbortReason
	m.Run(
		func(c *sim.CPU) { // core 0: long speculative region writing addr
			u := s.Unit(0)
			r, _ := u.Region(func() {
				u.Store(addr, 42)
				c.Cycles(100_000) // stay inside while core 1 intrudes
				u.Load(addr)      // next op delivers the abort
			})
			reason = r
		},
		func(c *sim.CPU) { // core 1: plain read, strong isolation
			c.Cycles(10_000)
			seen = c.Load(addr)
		},
	)
	if reason != sim.AbortContention {
		t.Fatalf("writer aborted with %v, want contention", reason)
	}
	if seen != 0 {
		t.Fatalf("plain reader saw speculative value %d, want 0", seen)
	}
	if got := m.Mem.Load(addr); got != 0 {
		t.Fatalf("mem = %d after rollback, want 0", got)
	}
}

func TestRequesterWinsWriteAbortsReaders(t *testing.T) {
	m, s := testSystem(t, 3, LLB256)
	const addr = 0x400
	reasons := make([]sim.AbortReason, 3)
	m.Run(
		func(c *sim.CPU) {
			u := s.Unit(0)
			reasons[0], _ = u.Region(func() {
				u.Load(addr)
				c.Cycles(100_000)
				u.Load(addr)
			})
		},
		func(c *sim.CPU) {
			u := s.Unit(1)
			reasons[1], _ = u.Region(func() {
				u.Load(addr)
				c.Cycles(100_000)
				u.Load(addr)
			})
		},
		func(c *sim.CPU) { // plain writer arrives in the middle
			c.Cycles(10_000)
			c.Store(addr, 5)
		},
	)
	if reasons[0] != sim.AbortContention || reasons[1] != sim.AbortContention {
		t.Fatalf("reader abort reasons = %v, want both contention", reasons[:2])
	}
}

func TestTwoReadersDoNotConflict(t *testing.T) {
	m, s := testSystem(t, 2, LLB256)
	const addr = 0x500
	reasons := make([]sim.AbortReason, 2)
	body := func(id int) func(*sim.CPU) {
		return func(c *sim.CPU) {
			u := s.Unit(id)
			reasons[id], _ = u.Region(func() {
				u.Load(addr)
				c.Cycles(50_000)
				u.Load(addr)
			})
		}
	}
	m.Run(body(0), body(1))
	if reasons[0] != sim.AbortNone || reasons[1] != sim.AbortNone {
		t.Fatalf("read sharing aborted: %v", reasons)
	}
}

func TestCapacityAbortLLB8(t *testing.T) {
	m, s := testSystem(t, 1, LLB8)
	var reason sim.AbortReason
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ = u.Region(func() {
			for i := 0; i < 9; i++ { // 9 lines > 8 entries
				u.Store(mem.Addr(0x1000+i*mem.LineSize), 1)
			}
		})
	})
	if reason != sim.AbortCapacity {
		t.Fatalf("reason = %v, want capacity", reason)
	}
	// All speculative stores must be rolled back.
	for i := 0; i < 9; i++ {
		if v := m.Mem.Load(mem.Addr(0x1000 + i*mem.LineSize)); v != 0 {
			t.Fatalf("line %d leaked speculative value %d", i, v)
		}
	}
}

func TestArchitecturalMinimumCapacity(t *testing.T) {
	// Eventual forward progress: a solo region protecting 4 lines must
	// commit (possibly after transient aborts, e.g. timer interrupts)
	// on the pure-LLB implementations.
	for _, v := range []Variant{LLB8, LLB256} {
		t.Run(v.Name, func(t *testing.T) {
			m, s := testSystem(t, 1, v)
			committed := false
			m.Run(func(c *sim.CPU) {
				u := s.Unit(0)
				for try := 0; try < 10 && !committed; try++ {
					reason, _ := u.Region(func() {
						for i := 0; i < MinCapacityLines; i++ {
							u.Store(mem.Addr(0x2000+i*mem.LineSize), 1)
						}
					})
					if reason == sim.AbortNone {
						committed = true
					} else if reason == sim.AbortCapacity {
						t.Fatalf("capacity abort within architectural minimum")
					}
				}
			})
			if !committed {
				t.Fatal("region never committed")
			}
		})
	}
}

func TestReleaseFreesLLBEntries(t *testing.T) {
	// Hand-over-hand traversal: with early release, an LLB-8 region can
	// walk arbitrarily many lines keeping only a window protected.
	m, s := testSystem(t, 1, LLB8)
	var reason sim.AbortReason
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ = u.Region(func() {
			var prev mem.Addr
			for i := 0; i < 64; i++ {
				a := mem.Addr(0x4000 + i*mem.LineSize)
				u.Load(a)
				if prev != 0 {
					u.Release(prev)
				}
				prev = a
			}
		})
	})
	if reason != sim.AbortNone {
		t.Fatalf("reason = %v, want commit", reason)
	}
}

// TestReleaseCannotCancelStore: on every variant, RELEASE of a written
// line leaves it in the write set, owned, so a commit keeps its store and
// an abort still rolls it back, while RELEASE of a read line drops this
// core's mark.
func TestReleaseCannotCancelStore(t *testing.T) {
	const written, read = 0x600, 0x680
	for _, v := range AllVariants {
		t.Run(v.Name, func(t *testing.T) {
			m, s := testSystem(t, 1, v)
			m.Run(func(c *sim.CPU) {
				u := s.Unit(0)
				reason, _ := u.Region(func() {
					u.Load(0x640) // ASF1 protects no new line after a store
					u.Store(written, 3)
					u.Release(written) // strict hint: must be ignored for writes
					u.Store(0x640, 4)
				})
				if reason != sim.AbortNone {
					t.Fatalf("reason = %v", reason)
				}
				reason, _ = u.Region(func() {
					u.Load(read)
					u.Store(written, 5)
					u.Release(written)
					u.Release(read)
					if p := s.prot.Find(written); p == nil || p.Owner() != 0 {
						t.Error("RELEASE dropped a written line")
					}
					if p := s.prot.Find(read); p != nil && p.Holders != 0 {
						t.Error("RELEASE kept a read line")
					}
					if _, w := u.setSizes(); w != 1 {
						t.Errorf("write set %d lines after RELEASE, want 1", w)
					}
					u.Abort(1)
				})
				if reason != sim.AbortExplicit {
					t.Errorf("reason = %v, want explicit", reason)
				}
			})
			if got := m.Mem.Load(written); got != 3 {
				t.Fatalf("released written line = %d, want 3: the commit keeps its store and the abort restores it", got)
			}
		})
	}
}

func TestFlatNesting(t *testing.T) {
	m, s := testSystem(t, 1, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ := u.Region(func() {
			u.Store(0x700, 1)
			inner, _ := u.Region(func() {
				u.Store(0x740, 2)
			})
			if inner != sim.AbortNone {
				t.Errorf("inner region reported %v", inner)
			}
			// Inner protections must persist until the outermost commit.
			if s.ProtectedLines() != 2 {
				t.Errorf("protected lines = %d inside outer, want 2", s.ProtectedLines())
			}
		})
		if reason != sim.AbortNone {
			t.Errorf("outer region aborted: %v", reason)
		}
	})
	if m.Mem.Load(0x700) != 1 || m.Mem.Load(0x740) != 2 {
		t.Fatal("nested stores not committed")
	}
}

func TestNestedAbortUnwindsWholeRegion(t *testing.T) {
	m, s := testSystem(t, 1, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, code := u.Region(func() {
			u.Store(0x800, 1)
			u.Region(func() {
				u.Store(0x840, 2)
				u.Abort(5)
			})
			t.Error("outer body continued past nested abort")
		})
		if reason != sim.AbortExplicit || code != 5 {
			t.Errorf("reason=%v code=%d", reason, code)
		}
	})
	if m.Mem.Load(0x800) != 0 || m.Mem.Load(0x840) != 0 {
		t.Fatal("nested abort did not roll back the whole region")
	}
}

func TestColocationExceptionOnPlainStoreToSpecLine(t *testing.T) {
	m, s := testSystem(t, 1, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ := u.Region(func() {
			u.Store(0x900, 1)
			c.Store(0x908, 2) // plain store, same line: exception
		})
		if reason != sim.AbortDisallowed {
			t.Errorf("reason = %v, want disallowed", reason)
		}
	})
	if m.Mem.Load(0x900) != 0 {
		t.Fatal("speculative store survived the exception")
	}
}

func TestPlainWriteToReadLineIsHoisted(t *testing.T) {
	// ASF hoists colocated unprotected accesses to read-set lines into
	// the transactional data set, so the plain store rolls back too.
	m, s := testSystem(t, 1, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ := u.Region(func() {
			u.Load(0xA00)
			c.Store(0xA08, 7) // hoisted into the write set
			u.Abort(1)
		})
		if reason != sim.AbortExplicit {
			t.Errorf("reason = %v", reason)
		}
	})
	if got := m.Mem.Load(0xA08); got != 0 {
		t.Fatalf("hoisted store leaked: %d", got)
	}
}

func TestSelectiveAnnotationPlainStoresSurviveAbort(t *testing.T) {
	// Plain accesses to *other* lines are nontransactional: they are not
	// rolled back (that is the point of selective annotation).
	m, s := testSystem(t, 1, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		u.Region(func() {
			c.Store(0xB00, 9) // thread-local by convention
			u.Store(0xC00, 1)
			u.Abort(1)
		})
	})
	if got := m.Mem.Load(0xB00); got != 9 {
		t.Fatalf("plain store rolled back: %d, want 9", got)
	}
	if got := m.Mem.Load(0xC00); got != 0 {
		t.Fatalf("speculative store survived: %d, want 0", got)
	}
}

func TestPageFaultAbortsRegion(t *testing.T) {
	cfg := sim.Barcelona(1)
	m := sim.New(cfg) // nothing prefaulted
	s := Install(m, LLB256)
	m.Mem.Prefault(0, 1<<16)
	var reasons []sim.AbortReason
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		for try := 0; try < 3; try++ {
			r, _ := u.Region(func() {
				u.Store(0x100000, 1) // cold page
			})
			reasons = append(reasons, r)
			if r == sim.AbortNone {
				break
			}
		}
	})
	if len(reasons) < 2 || reasons[0] != sim.AbortPageFault || reasons[1] != sim.AbortNone {
		t.Fatalf("reasons = %v, want [page-fault none]", reasons)
	}
}

func TestSyscallAbortsRegion(t *testing.T) {
	m, s := testSystem(t, 1, LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ := u.Region(func() {
			u.Store(0xD00, 1)
			c.Syscall(1000)
		})
		if reason != sim.AbortSyscall {
			t.Errorf("reason = %v, want syscall", reason)
		}
	})
	if m.Mem.Load(0xD00) != 0 {
		t.Fatal("store survived syscall abort")
	}
}

func TestTimerInterruptAbortsRegion(t *testing.T) {
	cfg := sim.Barcelona(1)
	cfg.TimerInterval = 5_000
	m := sim.New(cfg)
	m.Mem.Prefault(0, 1<<20)
	s := Install(m, LLB256)
	var reason sim.AbortReason
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ = u.Region(func() {
			u.Store(0xE00, 1)
			c.Cycles(20_000)
			u.Load(0xE00)
		})
	})
	if reason != sim.AbortInterrupt {
		t.Fatalf("reason = %v, want interrupt", reason)
	}
}

func TestHybridL1DisplacementCausesCapacityAbort(t *testing.T) {
	// With L1 read-set tracking (2-way associative), reading 3 lines that
	// map to the same set must displace a marked line and abort, even
	// though the LLB has plenty of room. This is the §5 pathology.
	m, s := testSystem(t, 1, LLB256L1)
	// L1: 64 KiB / 64 B / 2-way = 512 sets; stride 512*64 = 32 KiB.
	stride := 512 * mem.LineSize
	var reason sim.AbortReason
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ = u.Region(func() {
			for i := 0; i < 3; i++ {
				u.Load(mem.Addr(0x10000 + i*stride))
			}
			u.Load(0x10000) // deliver the pending capacity abort
		})
	})
	if reason != sim.AbortCapacity {
		t.Fatalf("reason = %v, want capacity (L1 displacement)", reason)
	}
	// The pure-LLB variant handles the same pattern fine.
	m2, s2 := testSystem(t, 1, LLB256)
	m2.Run(func(c *sim.CPU) {
		u := s2.Unit(0)
		r, _ := u.Region(func() {
			for i := 0; i < 3; i++ {
				u.Load(mem.Addr(0x10000 + i*stride))
			}
		})
		if r != sim.AbortNone {
			t.Errorf("LLB-256 aborted with %v on the same pattern", r)
		}
	})
}

func TestWatchRMonitorsWithoutData(t *testing.T) {
	m, s := testSystem(t, 2, LLB256)
	var reason sim.AbortReason
	m.Run(
		func(c *sim.CPU) {
			u := s.Unit(0)
			reason, _ = u.Region(func() {
				u.WatchR(0xF00)
				c.Cycles(100_000)
				u.Load(0xF40)
			})
		},
		func(c *sim.CPU) {
			c.Cycles(10_000)
			c.Store(0xF00, 1)
		},
	)
	if reason != sim.AbortContention {
		t.Fatalf("WATCHR did not detect remote store: %v", reason)
	}
}

func TestWatchWConflictsWithRemoteRead(t *testing.T) {
	m, s := testSystem(t, 2, LLB256)
	var reason sim.AbortReason
	m.Run(
		func(c *sim.CPU) {
			u := s.Unit(0)
			reason, _ = u.Region(func() {
				u.WatchW(0x1F00)
				c.Cycles(100_000)
				u.Load(0x1F40)
			})
		},
		func(c *sim.CPU) {
			c.Cycles(10_000)
			c.Load(0x1F00) // reads conflict with a speculative write
		},
	)
	if reason != sim.AbortContention {
		t.Fatalf("WATCHW did not conflict with remote load: %v", reason)
	}
}

func TestVariantByName(t *testing.T) {
	for _, v := range Variants {
		got, err := VariantByName(v.Name)
		if err != nil || got != v {
			t.Errorf("VariantByName(%q) = %v, %v", v.Name, got, err)
		}
	}
	if _, err := VariantByName("bogus"); err == nil {
		t.Error("VariantByName(bogus) succeeded")
	}
}

func TestCacheBasedVariantCommitAndRollback(t *testing.T) {
	m, s := testSystem(t, 1, CacheOnly)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ := u.Region(func() {
			u.Store(0x7000, 3)
			u.Store(0x7040, 4)
		})
		if reason != sim.AbortNone {
			t.Errorf("commit failed: %v", reason)
		}
		reason, _ = u.Region(func() {
			u.Store(0x7000, 99)
			u.Abort(1)
		})
		if reason != sim.AbortExplicit {
			t.Errorf("reason = %v", reason)
		}
	})
	if m.Mem.Load(0x7000) != 3 || m.Mem.Load(0x7040) != 4 {
		t.Fatal("cache-based rollback/commit wrong")
	}
	if s.ProtectedLines() != 0 {
		t.Fatal("protection leaked")
	}
}

func TestCacheBasedWriteSetDisplacementAborts(t *testing.T) {
	// The pure cache-based design cannot evict a speculatively written
	// line: three writes mapping to one 2-way L1 set must abort.
	m, s := testSystem(t, 1, CacheOnly)
	stride := 512 * mem.LineSize
	var reason sim.AbortReason
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		reason, _ = u.Region(func() {
			for i := 0; i < 3; i++ {
				u.Store(mem.Addr(0x20000+i*stride), 1)
			}
			u.Load(0x20000) // deliver any pending abort
		})
	})
	if reason != sim.AbortCapacity {
		t.Fatalf("reason = %v, want capacity", reason)
	}
	for i := 0; i < 3; i++ {
		if m.Mem.Load(mem.Addr(0x20000+i*stride)) != 0 {
			t.Fatal("speculative write leaked on displacement abort")
		}
	}
}

func TestASF1FreezesProtectedSetAtFirstWrite(t *testing.T) {
	m, s := testSystem(t, 1, ASF1LLB256)
	m.Run(func(c *sim.CPU) {
		u := s.Unit(0)
		// Reading after the first write is ASF2 behaviour; ASF1 aborts.
		reason, _ := u.Region(func() {
			u.Load(0x8000)
			u.Store(0x8000, 1) // upgrade of a protected line: allowed
			u.Load(0x8040)     // NEW line after the atomic phase: forbidden
		})
		if reason != sim.AbortDisallowed {
			t.Errorf("read expansion: reason = %v, want disallowed", reason)
		}
		// The ASF1-correct pattern: protect everything first, then write.
		reason, _ = u.Region(func() {
			u.Load(0x8000)
			u.Load(0x8040)
			u.Store(0x8000, 5)
			u.Store(0x8040, 6)
		})
		if reason != sim.AbortNone {
			t.Errorf("declare-then-write: reason = %v", reason)
		}
	})
	if m.Mem.Load(0x8000) != 5 || m.Mem.Load(0x8040) != 6 {
		t.Fatal("ASF1 declare-then-write lost data")
	}
}

func TestAllVariantNamesResolve(t *testing.T) {
	for _, v := range AllVariants {
		got, err := VariantByName(v.Name)
		if err != nil || got.Name != v.Name {
			t.Errorf("VariantByName(%q): %v %v", v.Name, got, err)
		}
	}
}
