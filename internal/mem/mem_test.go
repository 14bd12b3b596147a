package mem

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestAddrGeometry(t *testing.T) {
	a := Addr(0x12345)
	if a.Line() != 0x12340 {
		t.Errorf("Line = %v", a.Line())
	}
	if a.Page() != 0x12000 {
		t.Errorf("Page = %v", a.Page())
	}
	if Addr(0x40).LineIndex() != 0 || Addr(0x48).LineIndex() != 1 || Addr(0x78).LineIndex() != 7 {
		t.Error("LineIndex wrong")
	}
	if !Addr(0x48).WordAligned() || Addr(0x44).WordAligned() {
		t.Error("WordAligned wrong")
	}
}

func TestLoadStoreRoundtrip(t *testing.T) {
	m := New()
	m.Prefault(0, 1<<16)
	f := func(off uint16, v Word) bool {
		a := Addr(off) &^ (WordSize - 1)
		m.Store(a, v)
		return m.Load(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned store did not panic")
		}
	}()
	m.Store(0x41, 1)
}

func TestLineOpsMatchWordOps(t *testing.T) {
	m := New()
	m.Prefault(0, PageSize)
	for i := 0; i < WordsPerLine; i++ {
		m.Store(Addr(0x100+i*WordSize), Word(i*7+1))
	}
	var buf [WordsPerLine]Word
	m.LoadLine(0x108, &buf) // any address within the line
	for i := range buf {
		if buf[i] != Word(i*7+1) {
			t.Fatalf("LoadLine[%d] = %d", i, buf[i])
		}
		buf[i] *= 2
	}
	m.StoreLine(0x100, &buf)
	for i := 0; i < WordsPerLine; i++ {
		if got := m.Load(Addr(0x100 + i*WordSize)); got != Word((i*7+1)*2) {
			t.Fatalf("word %d = %d after StoreLine", i, got)
		}
	}
}

func TestDemandPaging(t *testing.T) {
	m := New()
	if m.Present(0x5000) {
		t.Fatal("fresh page present")
	}
	if !m.EnsurePresent(0x5000) {
		t.Fatal("first touch did not fault")
	}
	if m.EnsurePresent(0x5008) {
		t.Fatal("second touch faulted")
	}
	if m.FaultCount() != 1 {
		t.Fatalf("faults = %d", m.FaultCount())
	}
	m.Prefault(0x10000, 3*PageSize)
	if m.FaultCount() != 1 {
		t.Fatal("Prefault counted faults")
	}
	for off := Addr(0); off < 3*PageSize; off += PageSize {
		if !m.Present(0x10000 + off) {
			t.Fatalf("page at +%#x not prefaulted", off)
		}
	}
}

func TestArenaAlignmentAndExhaustion(t *testing.T) {
	m := New()
	a := NewArena(m, 0x1000, 0x2000)
	p1 := a.Alloc(24, 8)
	p2 := a.Alloc(8, 64)
	if p2%64 != 0 {
		t.Fatalf("line-aligned alloc at %v", p2)
	}
	if p2 < p1+24 {
		t.Fatal("overlapping allocations")
	}
	if got := a.AllocPadded(10); got%64 != 0 {
		t.Fatalf("padded alloc at %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhaustion did not panic")
		}
	}()
	a.Alloc(1<<20, 8)
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	l := NewLayout(0)
	b1, e1 := l.Region(100)
	b2, e2 := l.Region(PageSize + 1)
	if e1 > b2 {
		t.Fatalf("regions overlap: [%v,%v) [%v,%v)", b1, e1, b2, e2)
	}
	if b1%PageSize != 0 || b2%PageSize != 0 || e2%PageSize != 0 {
		t.Fatal("regions not page aligned")
	}
}

// TestLayoutStopsAtMaxAddr: a region may end at MaxAddr but not cross it,
// and a size that would wrap the address space panics rather than
// restarting the layout at a low address.
func TestLayoutStopsAtMaxAddr(t *testing.T) {
	panics := func(l *Layout, size uint64) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		l.Region(size)
		return false
	}
	l := NewLayout(PageSize)
	if _, end := l.Region(uint64(MaxAddr - PageSize)); end != MaxAddr {
		t.Fatalf("region ends at %v, want %v", end, MaxAddr)
	}
	if !panics(l, 1) {
		t.Error("a region past MaxAddr did not panic")
	}
	if !panics(NewLayout(PageSize), 1<<64-PageSize) {
		t.Error("a region wrapping the address space did not panic")
	}
}

// heapDelta returns the heap objects and bytes allocated while run ran.
func heapDelta(run func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestUnbackedPageReadsZero: a prefaulted page that was never written reads
// zero by word and by line, and LoadLine overwrites the whole buffer: the
// ASF LLB reuses its backup buffers, so stale words must not survive.
func TestUnbackedPageReadsZero(t *testing.T) {
	m := New()
	m.Prefault(0x4000, PageSize)
	for off := Addr(0); off < PageSize; off += 0x208 {
		if v := m.Load(0x4000 + off); v != 0 {
			t.Fatalf("Load(%v) = %d on an unwritten page", 0x4000+off, v)
		}
	}
	buf := [WordsPerLine]Word{1, 2, 3, 4, 5, 6, 7, 8}
	m.LoadLine(0x4048, &buf)
	if buf != ([WordsPerLine]Word{}) {
		t.Fatalf("LoadLine of an unwritten page left %v", buf)
	}
}

// TestPrefaultAllocatesNoWords: prefaulting 1 MiB allocates page headers
// only, and the first store into one of those pages allocates its words as
// one object of at most 4 KiB.
func TestPrefaultAllocatesNoWords(t *testing.T) {
	m := New()
	if _, bytes := heapDelta(func() { m.Prefault(0, 1<<20) }); bytes >= 64<<10 {
		t.Fatalf("Prefault of 1 MiB allocated %d bytes, want < 64 KiB", bytes)
	}
	objects, bytes := heapDelta(func() { m.Store(0x30008, 7) })
	if objects != 1 || bytes > PageSize {
		t.Fatalf("first store into a prefaulted page allocated %d objects, %d bytes; want 1 object of at most %d bytes",
			objects, bytes, PageSize)
	}
	if v := m.Load(0x30008); v != 7 {
		t.Fatalf("Load after the first store = %d", v)
	}
}

// TestStoreBeforePresent: a store to a page the simulated OS has not yet
// installed keeps its value, and the page's first EnsurePresent still
// faults.
func TestStoreBeforePresent(t *testing.T) {
	m := New()
	m.Store(0x7008, 42)
	if m.Present(0x7000) {
		t.Fatal("a store installed the page")
	}
	if !m.EnsurePresent(0x7010) {
		t.Fatal("first EnsurePresent after a store did not fault")
	}
	if m.FaultCount() != 1 {
		t.Fatalf("faults = %d, want 1", m.FaultCount())
	}
	if v := m.Load(0x7008); v != 42 {
		t.Fatalf("Load = %d after faulting the page in, want 42", v)
	}
}
