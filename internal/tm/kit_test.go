package tm

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// TestAttemptUnwindsOwnCoreOnly: Attempt reports false only for an Unwind
// of its own core; another core's unwind and any other panic propagate.
func TestAttemptUnwindsOwnCoreOnly(t *testing.T) {
	m := sim.New(sim.Barcelona(2))
	c0, c1 := m.CPU(0), m.CPU(1)
	if !Attempt(c0, func() {}) {
		t.Fatal("a completed attempt reported false")
	}
	if Attempt(c0, func() { Unwind(c0) }) {
		t.Fatal("an unwound attempt reported true")
	}
	propagated := func(run func()) (rec any) {
		defer func() { rec = recover() }()
		Attempt(c0, run)
		return nil
	}
	if rec := propagated(func() { Unwind(c1) }); rec != (unwind{core: 1}) {
		t.Fatalf("core 1's unwind inside core 0's attempt: recovered %v, want it re-panicked", rec)
	}
	if rec := propagated(func() { panic("boom") }); rec != "boom" {
		t.Fatalf("foreign panic: recovered %v, want it re-panicked", rec)
	}
}

// TestHeapAllocRefillsOnEmptyPool: Alloc refills exactly when AllocFast
// fails and charges what the inline AllocFast-then-Refill loop charges.
func TestHeapAllocRefillsOnEmptyPool(t *testing.T) {
	sizes := []uint64{64, 8, ChunkSize, 3 * ChunkSize, 24, ChunkSize / 2}
	type result struct {
		addr mem.Addr
		now  uint64
	}
	run := func(alloc func(h *Heap, c *sim.CPU, size uint64) mem.Addr) []result {
		m, h := newHeap(t)
		var out []result
		m.Run(func(c *sim.CPU) {
			for _, size := range sizes {
				out = append(out, result{alloc(h, c, size), c.Now()})
			}
		})
		return out
	}
	got := run(func(h *Heap, c *sim.CPU, size uint64) mem.Addr { return h.Alloc(c, size, mem.WordSize) })
	want := run(func(h *Heap, c *sim.CPU, size uint64) mem.Addr {
		for {
			a, ok := h.AllocFast(c, size, mem.WordSize)
			if ok {
				return a
			}
			h.Refill(c, size)
		}
	})
	for i := range sizes {
		if got[i] != want[i] {
			t.Fatalf("allocation %d (%d bytes): Alloc gave %+v, the inline loop %+v", i, sizes[i], got[i], want[i])
		}
	}

	// On an empty pool, one Alloc refills one chunk and no more.
	m, h := newHeap(t)
	m.Run(func(c *sim.CPU) {
		h.Alloc(c, 64, mem.WordSize)
		if _, ok := h.AllocFast(c, ChunkSize-64, mem.WordSize); !ok {
			t.Error("the refill did not leave the rest of its chunk in the pool")
		}
		if _, ok := h.AllocFast(c, mem.WordSize, mem.WordSize); ok {
			t.Error("Alloc refilled more than one chunk")
		}
	})
}

// TestLogSpaceSlotsWrap: each log wraps at 128 KiB with the strides the
// runtimes use (8 bytes for STM's and HyTM's read logs, 16 for their write
// logs and both of Cohorts' logs), the two logs never overlap, and the
// space is prefaulted.
func TestLogSpaceSlotsWrap(t *testing.T) {
	m := sim.New(sim.Barcelona(1))
	l := NewLogSpace(m.Mem, mem.NewLayout(mem.PageSize))
	base := l.ReadSlot(0, mem.WordSize)
	for _, stride := range []uint64{mem.WordSize, 2 * mem.WordSize} {
		per := int(logHalf / stride) // entries before a log wraps
		for _, slot := range []func(int, uint64) mem.Addr{l.ReadSlot, l.WriteSlot} {
			first, last := slot(0, stride), slot(per-1, stride)
			if last != first+logHalf-mem.Addr(stride) {
				t.Errorf("stride %d: last slot %#x, want %#x", stride, last, first+logHalf-mem.Addr(stride))
			}
			if slot(per, stride) != first || slot(per+3, stride) != slot(3, stride) {
				t.Errorf("stride %d: slots do not wrap at 128 KiB", stride)
			}
		}
		if w := l.WriteSlot(0, stride); w != base+logHalf {
			t.Errorf("stride %d: write log at %#x, want %#x (after the read log)", stride, w, base+logHalf)
		}
	}
	if !m.Mem.Present(base) || !m.Mem.Present(base+2*logHalf-mem.WordSize) {
		t.Error("log space not prefaulted")
	}
}

// TestBackoffOneDrawInRange: each back-off draws exactly one number from
// the core's generator, spends it as the delay, and stays in 1..limit.
func TestBackoffOneDrawInRange(t *testing.T) {
	for _, p := range []struct {
		base, max uint64
		shift     int
	}{{64, 1 << 14, 8}, {64, 1 << 16, 10}} {
		for attempt := 0; attempt <= 12; attempt++ {
			limit := min(p.base<<min(attempt, p.shift), p.max)
			c := sim.New(sim.Barcelona(1)).CPU(0)
			ref := sim.New(sim.Barcelona(1)).CPU(0).Rand()
			before := c.Now()
			delay := Backoff(c, attempt, p.base, p.shift, p.max)
			if want := uint64(ref.Int63n(int64(limit))) + 1; delay != want {
				t.Fatalf("attempt %d: delay %d, want %d (one draw below %d, plus one)", attempt, delay, want, limit)
			}
			if delay < 1 || delay > limit {
				t.Fatalf("attempt %d: delay %d outside 1..%d", attempt, delay, limit)
			}
			if spent := c.Now() - before; spent != delay {
				t.Fatalf("attempt %d: spent %d cycles, want %d", attempt, spent, delay)
			}
			if c.Rand().Int63() != ref.Int63() {
				t.Fatalf("attempt %d: back-off drew more than one number", attempt)
			}
		}
	}
}
