package sim

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"asfstack/internal/cache"
	"asfstack/internal/mem"
)

// runMixed executes a random workload on a fresh machine and returns
// everything observable: final memory checksum, simulated duration and the
// per-core cache statistics. Without stores the mix is atomics over plain
// loads; with stores it adds plain stores and tight load/store repeat bursts
// on one line (the L1-hit and dirty-hit paths).
func runMixed(seed int64, cores int, stores bool) (mem.Word, uint64, []cache.Stats) {
	cfg := Barcelona(cores)
	cfg.Seed = seed
	m := New(cfg)
	m.Mem.Prefault(0, 1<<20)
	kinds := 3
	if stores {
		kinds = 5
	}
	bodies := make([]func(*CPU), cores)
	for i := range bodies {
		bodies[i] = func(c *CPU) {
			rng := c.Rand()
			for j := 0; j < 120; j++ {
				a := mem.Addr(rng.Intn(64)) * mem.LineSize
				switch rng.Intn(kinds) {
				case 0:
					c.Load(a)
				case 1:
					c.FetchAdd(a, 1)
				case 2:
					c.CAS(a, 0, mem.Word(c.ID()+1))
				case 3:
					c.Store(a, mem.Word(j))
				default:
					for k := 0; k < 8; k++ {
						c.Load(a)
						c.Store(a, mem.Word(k))
					}
				}
				c.Exec(rng.Intn(50))
			}
		}
	}
	dur := m.Run(bodies...)
	var sum mem.Word
	for i := 0; i < 64; i++ {
		sum += m.Mem.Load(mem.Addr(i) * mem.LineSize)
	}
	stats := make([]cache.Stats, cores)
	for i := range stats {
		stats[i] = m.Hier.Stats(i)
	}
	return sum, dur, stats
}

// TestDeterminismProperty: for arbitrary seeds and core counts, two
// identical runs produce identical final memory, identical simulated
// durations and identical per-core cache statistics — the property
// everything else (reproducible figures, debuggability) rests on.
func TestDeterminismProperty(t *testing.T) {
	prop := func(seed int64, rawCores uint8, stores bool) bool {
		cores := int(rawCores%8) + 1
		s1, d1, st1 := runMixed(seed, cores, stores)
		s2, d2, st2 := runMixed(seed, cores, stores)
		return s1 == s2 && d1 == d2 && slices.Equal(st1, st2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestCrossEngineIdentity: simulated results do not depend on the host
// engine that executes the core goroutines. The store and repeat-burst mix
// run with the Go scheduler confined to one OS thread is bit-identical —
// memory, duration and every cache counter on every core — to the same run
// spread over four threads.
func TestCrossEngineIdentity(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	prop := func(seed int64, rawCores uint8) bool {
		cores := int(rawCores%8) + 1
		runtime.GOMAXPROCS(1)
		s1, d1, st1 := runMixed(seed, cores, true)
		runtime.GOMAXPROCS(4)
		s2, d2, st2 := runMixed(seed, cores, true)
		if s1 != s2 || d1 != d2 {
			t.Logf("seed %d cores %d: sum %d vs %d, dur %d vs %d", seed, cores, s1, s2, d1, d2)
			return false
		}
		for i := range st1 {
			if st1[i] != st2[i] {
				t.Logf("seed %d cores %d: core %d stats %+v vs %+v", seed, cores, i, st1[i], st2[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestClockMonotonicity: a core's clock never goes backwards across any
// mix of operations.
func TestClockMonotonicity(t *testing.T) {
	m := New(Barcelona(2))
	m.Mem.Prefault(0, 1<<20)
	body := func(c *CPU) {
		last := c.Now()
		rng := c.Rand()
		for i := 0; i < 300; i++ {
			switch rng.Intn(4) {
			case 0:
				c.Load(mem.Addr(rng.Intn(1024)) * 8 * 8)
			case 1:
				c.Store(mem.Addr(rng.Intn(1024))*8*8, 1)
			case 2:
				c.Exec(rng.Intn(20))
			default:
				c.FetchAdd(0x40, 1)
			}
			if now := c.Now(); now < last {
				t.Errorf("clock went backwards: %d -> %d", last, now)
				return
			} else {
				last = now
			}
		}
	}
	m.Run(body, body)
}

// TestSyncClocks: after a sync, all cores share the maximum clock.
func TestSyncClocks(t *testing.T) {
	m := New(Barcelona(3))
	m.Mem.Prefault(0, 1<<16)
	m.Run(
		func(c *CPU) { c.Cycles(100); c.Load(0x40) },
		func(c *CPU) { c.Cycles(90000); c.Load(0x80) },
		func(c *CPU) { c.Load(0xC0) },
	)
	syncAt := m.SyncClocks()
	for i := 0; i < 3; i++ {
		if m.CPU(i).Now() != syncAt {
			t.Fatalf("core %d at %d, sync said %d", i, m.CPU(i).Now(), syncAt)
		}
	}
}
