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
// separate: a prefaulted range is one entry in a list of spans, a page gets
// its 16-byte header on its first touch, and the host heap follows what a
// run actually touches and writes.
package mem

import (
	"fmt"
	"slices"
	"sort"
)

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

// MaxAddr caps the simulated address space: every address is below 2^62.
// The cache's coherence directory packs a line address, its owner and an
// occupied bit into one 64-bit key, which leaves 62 bits for the address.
// Layout hands out no region that crosses it.
const MaxAddr Addr = 1 << 62

// Line returns the cache-line address (aligned down) containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// Page returns the page address (aligned down) containing a.
func (a Addr) Page() Addr { return a &^ (PageSize - 1) }

// WordAligned reports whether a is 8-byte aligned.
func (a Addr) WordAligned() bool { return a&(WordSize-1) == 0 }

// LineIndex returns the index of the word within its cache line.
func (a Addr) LineIndex() int { return int(a>>WordShift) & (WordsPerLine - 1) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// page is one page's header, created on the page's first touch. words is
// allocated on the page's first write (4 KiB, one object in Go's 4,096-byte
// size class); a nil words reads as zeros. Presence is independent of
// backing: a page may be present and unbacked (prefaulted, never written)
// or backed and not yet present (written before the simulated OS installed
// it).
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

	// spans lists the prefaulted page ranges, sorted, disjoint and never
	// abutting. A page's header, once it exists, holds the page's
	// presence; a page without one is present exactly when a span holds
	// it.
	spans []span

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

// span is the page range [lo, hi); both ends are page aligned.
type span struct{ lo, hi Addr }

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
// chunk on first use, present if a span holds the page.
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
		p.present = m.spanned(pa)
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
// pageFor it never materialises the page: a page without a header reads
// the spans.
func (m *Memory) Present(a Addr) bool {
	pa := a.Page()
	e := &m.cache[cacheIdx(pa)]
	if e.p != nil && e.pa == pa {
		return e.p.present
	}
	p, ok := m.pages[pa]
	if !ok {
		return m.spanned(pa)
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

// Prefault installs every page from a's page up to a+size without
// counting faults. Used to model memory that was touched during
// (unsimulated) initialisation. It records the range as a span and marks
// present only the pages that already have a header; the rest read the
// spans when first touched, so a prefaulted page costs nothing until then.
func (m *Memory) Prefault(a Addr, size uint64) {
	lo, hi := a.Page(), (a + Addr(size) + PageSize - 1).Page()
	if lo >= hi {
		return
	}
	m.addSpan(lo, hi)
	for pa := lo; pa < hi; pa += PageSize {
		if p, ok := m.pages[pa]; ok {
			p.present = true
		}
	}
}

// addSpan merges [lo, hi) into the spans, together with every span it
// overlaps or abuts. Extending a span in place allocates nothing, so a run
// of prefaults that each start where the last ended stays one span.
func (m *Memory) addSpan(lo, hi Addr) {
	s := m.spans
	i := sort.Search(len(s), func(k int) bool { return s[k].hi >= lo })
	j := i
	for j < len(s) && s[j].lo <= hi {
		j++
	}
	if i == j {
		m.spans = slices.Insert(s, i, span{lo, hi})
		return
	}
	s[i] = span{min(lo, s[i].lo), max(hi, s[j-1].hi)}
	m.spans = slices.Delete(s, i+1, j)
}

// spanned reports whether a span holds page pa.
func (m *Memory) spanned(pa Addr) bool {
	s := m.spans
	i := sort.Search(len(s), func(k int) bool { return s[k].hi > pa })
	return i < len(s) && s[i].lo <= pa
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
