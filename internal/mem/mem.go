// Package mem implements the simulated physical memory that every other
// component of the ASF stack operates on.
//
// The memory is a sparse, word-addressable physical address space organised
// in 4 KiB pages and 64-byte cache lines — the units the rest of the stack
// cares about: ASF protects memory at cache-line granularity and the OS model
// pages memory in at page granularity (demand paging; the first touch of a
// page raises a page fault, which aborts ASF speculative regions).
//
// All workload data structures live in this address space, not in Go objects,
// so that address layout (padding, colocation, associativity conflicts) has
// the same first-order effects it has on real hardware.
//
// A page's words are allocated on its first write; until then it reads as
// zeros. Presence (the simulated OS's view) and backing (the host's) are
// separate, so prefaulting a large metadata region costs the host a 16-byte
// header per page, and the host heap follows what a run actually writes.
package mem

import "fmt"

// Word is the unit of data access: a 64-bit little-endian machine word.
type Word = uint64

// Addr is a simulated physical byte address.
type Addr uint64

// Fundamental geometry of the simulated machine. These mirror the AMD
// family 10h ("Barcelona") configuration used in the paper.
const (
	WordSize  = 8 // bytes per word
	WordShift = 3

	LineSize     = 64 // bytes per cache line (ASF's unit of protection)
	LineShift    = 6
	WordsPerLine = LineSize / WordSize

	PageSize     = 4096 // bytes per page (demand-paging granularity)
	PageShift    = 12
	WordsPerPage = PageSize / WordSize
)

// Line returns the cache-line address (aligned down) containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// Page returns the page address (aligned down) containing a.
func (a Addr) Page() Addr { return a &^ (PageSize - 1) }

// WordAligned reports whether a is 8-byte aligned.
func (a Addr) WordAligned() bool { return a&(WordSize-1) == 0 }

// LineIndex returns the index of the word within its cache line.
func (a Addr) LineIndex() int { return int(a>>WordShift) & (WordsPerLine - 1) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// page is one page's header. words is allocated on the page's first write
// (4 KiB, one object in Go's 4,096-byte size class); a nil words reads as
// zeros. Presence is independent of backing: a page may be present and
// unbacked (prefaulted, never written) or backed and not yet present
// (written before the simulated OS installed it).
type page struct {
	words   *[WordsPerPage]Word
	present bool // installed by the (simulated) OS on first fault
}

// Memory is the simulated physical memory. It is not safe for concurrent
// use; the simulation engine serialises all accesses.
type Memory struct {
	pages map[Addr]*page
	// free is the unused tail of the chunk pageFor carves new headers
	// from. A chunk is never moved or freed, so header pointers stay
	// stable.
	free []page

	// cache is a small direct-mapped page cache that skips the map lookup:
	// accesses are heavily page-local per core, but cores interleave, so a
	// single entry thrashes. Slots are indexed by a multiplicative hash of
	// the page number. Headers are never removed or moved, so cached
	// pointers cannot dangle.
	cache [pageCacheSlots]pageCacheEnt

	// faultedPages counts demand-paging faults taken so far.
	faultedPages uint64
}

const pageCacheSlots = 256 // power of two

// pageChunk is how many page headers pageFor allocates at a time.
const pageChunk = 256

type pageCacheEnt struct {
	pa Addr
	p  *page // nil marks an empty slot
}

// cacheIdx spreads page numbers across the cache slots; neighbouring pages
// and same-offset pages of different regions must not collide.
func cacheIdx(pa Addr) int {
	return int((uint64(pa>>PageShift) * 0x9E3779B97F4A7C15) >> 56)
}

// New returns an empty memory. Every page starts non-present; the first
// access must be preceded by EnsurePresent (the simulator's OS model does
// this and charges the page-fault cost).
func New() *Memory {
	return &Memory{pages: make(map[Addr]*page)}
}

// cached returns the header of a's page if the page cache holds it, or nil.
// It is small enough to inline, so the hit paths of Load and Store make no
// call.
func (m *Memory) cached(a Addr) *page {
	pa := a.Page()
	e := &m.cache[cacheIdx(pa)]
	if e.p != nil && e.pa == pa {
		return e.p
	}
	return nil
}

// pageFor returns the header of a's page, carving it from the current
// chunk on first use.
func (m *Memory) pageFor(a Addr) *page {
	if p := m.cached(a); p != nil {
		return p
	}
	pa := a.Page()
	p, ok := m.pages[pa]
	if !ok {
		if len(m.free) == 0 {
			m.free = make([]page, pageChunk)
		}
		p, m.free = &m.free[0], m.free[1:]
		m.pages[pa] = p
	}
	e := &m.cache[cacheIdx(pa)]
	e.pa, e.p = pa, p
	return p
}

// wordsFor returns the words of a's page, allocating them on the page's
// first write.
func (m *Memory) wordsFor(a Addr) *[WordsPerPage]Word {
	p := m.pageFor(a)
	if p.words == nil {
		p.words = new([WordsPerPage]Word)
	}
	return p.words
}

// Present reports whether the page containing a has been installed. Unlike
// pageFor it never materialises the page.
func (m *Memory) Present(a Addr) bool {
	pa := a.Page()
	e := &m.cache[cacheIdx(pa)]
	if e.p != nil && e.pa == pa {
		return e.p.present
	}
	p, ok := m.pages[pa]
	if !ok {
		return false
	}
	e.pa, e.p = pa, p
	return p.present
}

// EnsurePresent installs the page containing a, returning true if this
// access faulted (i.e., the page was not yet present). The caller is
// responsible for charging page-fault latency and aborting speculative
// regions, mirroring the behaviour of a first-touch minor fault.
func (m *Memory) EnsurePresent(a Addr) (faulted bool) {
	p := m.pageFor(a)
	if p.present {
		return false
	}
	p.present = true
	m.faultedPages++
	return true
}

// Prefault installs every page in [a, a+size) without counting faults.
// Used to model memory that was touched during (unsimulated) initialisation.
// It allocates page headers only; each page's words come with its first
// write.
func (m *Memory) Prefault(a Addr, size uint64) {
	for pa := a.Page(); pa < a+Addr(size); pa += PageSize {
		m.pageFor(pa).present = true
	}
}

// FaultCount returns the number of demand-paging faults taken so far.
func (m *Memory) FaultCount() uint64 { return m.faultedPages }

// Load reads the word at a. a must be word-aligned.
func (m *Memory) Load(a Addr) Word {
	mustAligned(a)
	p := m.cached(a)
	if p == nil {
		p = m.pageFor(a)
	}
	if p.words == nil {
		return 0
	}
	return p.words[wordIndex(a)]
}

// Store writes the word at a. a must be word-aligned.
func (m *Memory) Store(a Addr, v Word) {
	mustAligned(a)
	if p := m.cached(a); p != nil && p.words != nil {
		p.words[wordIndex(a)] = v
		return
	}
	m.wordsFor(a)[wordIndex(a)] = v
}

// LoadLine copies the 8 words of the cache line containing a into buf,
// overwriting all of it.
func (m *Memory) LoadLine(a Addr, buf *[WordsPerLine]Word) {
	la := a.Line()
	w := m.pageFor(la).words
	if w == nil {
		*buf = [WordsPerLine]Word{}
		return
	}
	base := wordIndex(la)
	copy(buf[:], w[base:base+WordsPerLine])
}

// StoreLine writes the 8 words of buf to the cache line containing a.
func (m *Memory) StoreLine(a Addr, buf *[WordsPerLine]Word) {
	la := a.Line()
	base := wordIndex(la)
	copy(m.wordsFor(la)[base:base+WordsPerLine], buf[:])
}

func wordIndex(a Addr) int {
	return int(a&(PageSize-1)) >> WordShift
}

func mustAligned(a Addr) {
	if !a.WordAligned() {
		panic(fmt.Sprintf("mem: unaligned word access at %v", a))
	}
}
