package mem

import "fmt"

// Layout carves the simulated address space into disjoint regions. Having an
// explicit layout keeps static data, per-thread heaps, and runtime metadata
// (e.g., the STM lock array) from sharing cache lines by accident — the paper
// pads "the entry points of the main data structures to avoid unnecessary
// contention aborts due to false sharing of cache lines".
type Layout struct {
	next Addr
}

// NewLayout returns a layout whose first region starts at base.
// base 0 is legal; the simulated space is purely physical.
func NewLayout(base Addr) *Layout { return &Layout{next: base.Line()} }

// Region reserves size bytes, aligned up to a page boundary on both ends so
// regions never share pages (and hence never share lines). It panics when
// the region would cross MaxAddr: callers size their regions so that it
// cannot.
func (l *Layout) Region(size uint64) (base Addr, end Addr) {
	base = Addr(alignUp(uint64(l.next), PageSize))
	if base > MaxAddr || size > uint64(MaxAddr-base) {
		panic(fmt.Sprintf("mem: region of %d bytes at %v crosses MaxAddr %v", size, base, MaxAddr))
	}
	end = Addr(alignUp(uint64(base)+size, PageSize))
	l.next = end
	return base, end
}

// Arena is a bump allocator over a region of simulated memory. Each
// simulated thread gets its own arena (mirroring the scalable allocator the
// paper selected — thread-private arenas avoid allocator contention).
//
// Arena is not safe for concurrent use; the simulation engine serialises all
// calls.
type Arena struct {
	mem  *Memory
	base Addr
	next Addr
	end  Addr
}

// NewArena returns an arena allocating from [base, end) of m.
func NewArena(m *Memory, base, end Addr) *Arena {
	return &Arena{mem: m, base: base, next: base, end: end}
}

// Remaining returns the number of bytes still available.
func (a *Arena) Remaining() uint64 { return uint64(a.end - a.next) }

// Base returns the start of the arena's region.
func (a *Arena) Base() Addr { return a.base }

// Alloc reserves size bytes with the given alignment (which must be a power
// of two ≥ 8) and returns the address. It panics when the arena is
// exhausted: workloads are sized so this is a configuration error, not a
// runtime condition.
func (a *Arena) Alloc(size uint64, align uint64) Addr {
	if align < WordSize || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", align))
	}
	p := Addr(alignUp(uint64(a.next), align))
	if p+Addr(size) > a.end {
		panic(fmt.Sprintf("mem: arena exhausted (base=%v size=%d remaining=%d)",
			a.base, size, a.Remaining()))
	}
	a.next = p + Addr(size)
	return p
}

// AllocWords reserves n words, word-aligned.
func (a *Arena) AllocWords(n int) Addr { return a.Alloc(uint64(n)*WordSize, WordSize) }

// AllocLines reserves n whole cache lines, line-aligned. This is the
// padded allocation the paper uses for shared-structure entry points.
func (a *Arena) AllocLines(n int) Addr { return a.Alloc(uint64(n)*LineSize, LineSize) }

// AllocPadded reserves size bytes rounded up to a whole number of cache
// lines, line-aligned, so the object shares its lines with nothing else.
func (a *Arena) AllocPadded(size uint64) Addr {
	return a.Alloc(alignUp(size, LineSize), LineSize)
}

// Owns reports whether p lies inside the arena's allocated span — an
// address some previous Alloc handed out. Addresses at or beyond the bump
// pointer were never allocated.
func (a *Arena) Owns(p Addr) bool { return p >= a.base && p < a.next }

// Prefault installs the pages backing [addr, addr+size) without counting
// faults — for data built during (unsimulated) initialisation.
func (a *Arena) Prefault(addr Addr, size uint64) { a.mem.Prefault(addr, size) }

func alignUp(v, align uint64) uint64 { return (v + align - 1) &^ (align - 1) }
