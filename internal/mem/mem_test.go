package mem

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
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
// zero by word and by line, and LoadLine overwrites the whole buffer: an
// ASF unit reuses its backup entries, so stale words must not survive.
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

// TestPrefaultAllocatesNoWords: prefaulting 1 MiB records one span and
// allocates no page metadata; the first touch of one of its pages creates
// the page's header, at most one chunk of headers (with the page map's
// first slots); and the first store allocates the page's words, one object
// of at most 4 KiB.
func TestPrefaultAllocatesNoWords(t *testing.T) {
	m := New()
	if _, bytes := heapDelta(func() { m.Prefault(0, 1<<20) }); bytes >= 1<<10 {
		t.Fatalf("Prefault of 1 MiB allocated %d bytes, want < 1 KiB", bytes)
	}
	chunk := uint64(pageChunk * unsafe.Sizeof(page{}))
	objects, bytes := heapDelta(func() {
		if !m.Present(0x30010) || m.Load(0x30010) != 0 {
			t.Error("a prefaulted page is not present or does not read zero")
		}
	})
	if objects > 2 || bytes >= chunk+1<<10 {
		t.Fatalf("first touch of a prefaulted page allocated %d objects, %d bytes; want at most one %d-byte header chunk and the map's first slots",
			objects, bytes, chunk)
	}
	objects, bytes = heapDelta(func() { m.Store(0x30008, 7) })
	if objects != 1 || bytes > PageSize {
		t.Fatalf("first store into a prefaulted page allocated %d objects, %d bytes; want 1 object of at most %d bytes",
			objects, bytes, PageSize)
	}
	if v := m.Load(0x30008); v != 7 {
		t.Fatalf("Load after the first store = %d", v)
	}
	if m.FaultCount() != 0 || m.EnsurePresent(0x30000) {
		t.Fatal("a prefaulted page faulted")
	}
}

// checkSpans fails t unless m's spans are page aligned, non-empty, sorted
// and apart: no two overlap or abut.
func checkSpans(t *testing.T, m *Memory) {
	t.Helper()
	for i, s := range m.spans {
		if s.lo%PageSize != 0 || s.hi%PageSize != 0 || s.lo >= s.hi {
			t.Fatalf("span %d is [%v, %v)", i, s.lo, s.hi)
		}
		if i > 0 && m.spans[i-1].hi >= s.lo {
			t.Fatalf("spans %d and %d overlap or abut: %v", i-1, i, m.spans)
		}
	}
}

// TestPrefaultModel drives random Prefault (overlapping, abutting,
// disjoint, unaligned, empty), Store, Load, Present and EnsurePresent calls
// against a map model of presence, words and the fault count. A prefaulted
// page is every page from a's page up to a+size.
func TestPrefaultModel(t *testing.T) {
	const pages = 48
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		present := map[Addr]bool{}
		words := map[Addr]Word{}
		var faults uint64

		// Pages 7, 9 and 30 get headers by a store before they are
		// present; then later prefaults cover 7 and 9.
		for _, a := range []Addr{7*PageSize + 0x18, 9*PageSize + 0x20, 30 * PageSize} {
			m.Store(a, Word(a))
			words[a] = Word(a)
		}
		m.Prefault(6*PageSize+0x100, PageSize+0x80)
		m.Prefault(9*PageSize, 12*PageSize)
		for pa := Addr(6 * PageSize); pa < 21*PageSize; pa += PageSize {
			present[pa] = pa != 8*PageSize
		}
		if !m.Present(7*PageSize) || !m.Present(9*PageSize) || m.Present(30*PageSize) {
			t.Fatal("a Prefault over pages that have headers did not install exactly them")
		}
		addr := func() Addr { return Addr(rng.Intn(pages * PageSize)) }
		word := func() Addr { return addr() &^ (WordSize - 1) }
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				a := addr()
				var size uint64
				switch rng.Intn(4) {
				case 0: // empty
				case 1:
					size = uint64(rng.Intn(3 * WordSize))
				case 2:
					size = uint64(rng.Intn(3 * PageSize))
				default:
					size = uint64(rng.Intn(8)) * PageSize
				}
				if rng.Intn(3) == 0 {
					a = a.Page()
				}
				m.Prefault(a, size)
				for pa := a.Page(); pa < a+Addr(size); pa += PageSize {
					present[pa] = true
				}
				checkSpans(t, m)
			case op < 5:
				a, v := word(), Word(rng.Uint64())
				m.Store(a, v)
				words[a] = v
			case op < 7:
				if a := word(); m.Load(a) != words[a] {
					t.Fatalf("seed %d step %d: Load(%v) = %d, want %d", seed, step, a, m.Load(a), words[a])
				}
			case op < 9:
				if a := addr(); m.Present(a) != present[a.Page()] {
					t.Fatalf("seed %d step %d: Present(%v) = %v, want %v", seed, step, a, m.Present(a), present[a.Page()])
				}
			default:
				a := addr()
				want := !present[a.Page()]
				if want {
					present[a.Page()] = true
					faults++
				}
				if got := m.EnsurePresent(a); got != want {
					t.Fatalf("seed %d step %d: EnsurePresent(%v) = %v, want %v", seed, step, a, got, want)
				}
			}
			if m.FaultCount() != faults {
				t.Fatalf("seed %d step %d: FaultCount = %d, want %d", seed, step, m.FaultCount(), faults)
			}
		}
		for pa := Addr(0); pa < pages*PageSize; pa += PageSize {
			if m.Present(pa) != present[pa] {
				t.Fatalf("seed %d: Present(%v) = %v at the end, want %v", seed, pa, m.Present(pa), present[pa])
			}
		}
	}
}

// TestAbuttingPrefaultsKeepOneSpan: a run of prefaults that each start
// where the last ended, as SetupAlloc makes them, stays one span and, after
// the first, allocates nothing.
func TestAbuttingPrefaultsKeepOneSpan(t *testing.T) {
	m := New()
	const base = 0x10_0008
	a := Addr(base)
	m.Prefault(a, 40)
	a += 40
	objects, _ := heapDelta(func() {
		for i := 1; i < 1_000; i++ {
			size := uint64(24 + i%7*1_000)
			m.Prefault(a, size)
			a += Addr(size)
		}
	})
	if objects != 0 {
		t.Errorf("999 abutting prefaults allocated %d objects, want 0", objects)
	}
	want := span{Addr(base).Page(), (a + PageSize - 1).Page()}
	if len(m.spans) != 1 || m.spans[0] != want {
		t.Fatalf("spans = %v, want [%v]", m.spans, want)
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
