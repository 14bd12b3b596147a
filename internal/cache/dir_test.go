package cache

import (
	"testing"

	"asfstack/internal/mem"
)

// TestDirTableGrowthPreservesState: inserting past the load-factor limit
// rehashes every slot; coherence state recorded before the growth must be
// found intact afterwards. dirMinSlots*3/4 insertions force at least one
// grow. Owners cycle through -1 (none) to 63, every value the packed key
// holds, and the tracked lines include the last one below mem.MaxAddr.
func TestDirTableGrowthPreservesState(t *testing.T) {
	var d dirTable
	d.init()
	n := dirMinSlots * 2 // guarantees two growth steps
	line := func(i int) mem.Addr {
		if i == 1 {
			return mem.MaxAddr - mem.LineSize
		}
		return mem.Addr(i * mem.LineSize)
	}
	owner := func(i int) int { return i%65 - 1 }
	for i := 0; i < n; i++ {
		s := d.getOrInsert(line(i))
		if s.owner() != -1 || s.holders != 0 || s.line() != line(i) {
			t.Fatalf("line %v: fresh state = {line:%v holders:%d owner:%d}, want neutral",
				line(i), s.line(), s.holders, s.owner())
		}
		s.setOwner(owner(i))
		s.holders = uint64(i)
	}
	for i := 0; i < n; i++ {
		s := d.getOrInsert(line(i))
		if s.owner() != owner(i) || s.holders != uint64(i) || s.line() != line(i) {
			t.Fatalf("line %v: state after growth = {line:%v holders:%d owner:%d}, want {holders:%d owner:%d}",
				line(i), s.line(), s.holders, s.owner(), i, owner(i))
		}
		s.setOwner(-1)
		if s.owner() != -1 || s.line() != line(i) {
			t.Fatalf("line %v: clearing owner %d left {line:%v owner:%d}", line(i), owner(i), s.line(), s.owner())
		}
	}
	if d.used != n {
		t.Fatalf("used = %d, want %d", d.used, n)
	}
}

// TestDirTableLineZero: line 0 is a real address (the key encoding must not
// confuse it with an empty slot).
func TestDirTableLineZero(t *testing.T) {
	var d dirTable
	d.init()
	s := d.getOrInsert(0)
	s.setOwner(3)
	if got := d.getOrInsert(0); got.owner() != 3 {
		t.Fatalf("line 0 state lost: owner %d", got.owner())
	}
	if d.used != 1 {
		t.Fatalf("used = %d, want 1", d.used)
	}
}

// TestDirTableRejectsMaxAddr: the packed key has no room for a line at or
// beyond mem.MaxAddr, so tracking one panics rather than aliasing a low
// line.
func TestDirTableRejectsMaxAddr(t *testing.T) {
	var d dirTable
	d.init()
	defer func() {
		if recover() == nil {
			t.Fatal("a line at mem.MaxAddr was tracked")
		}
	}()
	d.getOrInsert(mem.MaxAddr)
}

// TestCoherenceSurvivesDirGrowth drives growth through the public API:
// ownership recorded early must still trigger a cache-to-cache transfer
// after thousands of other lines have been tracked.
func TestCoherenceSurvivesDirGrowth(t *testing.T) {
	h := New(2, Barcelona())
	line := mem.Addr(0x4000)
	h.Access(0, line, true) // core 0 owns the line dirty
	for i := 0; i < dirMinSlots*2; i++ {
		h.Access(1, mem.Addr(0x800000+i*mem.LineSize), false)
	}
	r := h.Access(1, line, false)
	if r.Level != Remote {
		t.Fatalf("dirty line served from %v after directory growth, want remote", r.Level)
	}
}
