// Package cache models the memory hierarchy of the simulated machine: one
// private L1D and L2 per core, a shared L3, a two-level data TLB, and a
// simplified invalidation-based coherence directory.
//
// The model mirrors PTLsim-ASF's configuration for the AMD family 10h
// ("Barcelona") processor used in the paper:
//
//	L1D:  64 KB, 2-way set associative, 3 cycles load-to-use
//	L2:  512 KB, 16-way set associative, 15 cycles load-to-use
//	L3:    2 MB, 16-way set associative, 50 cycles load-to-use (shared)
//	RAM:  210 cycles load-to-use
//	D-TLB: 48 L1 entries fully associative; 512 L2 entries, 4-way
//
// Like PTLsim (a quirk the paper documents), only loads consult the TLB;
// stores do not and are never delayed by TLB misses.
//
// The hierarchy is a *timing and occupancy* model: data values always live in
// mem.Memory, which the simulation engine updates atomically. The caches
// decide how many cycles each access costs, which lines are resident where,
// and raise eviction callbacks that the ASF read-set tracking (hybrid
// implementation variant) depends on.
package cache

import (
	"fmt"
	"slices"

	"asfstack/internal/mem"
)

// Config describes the hierarchy geometry and latencies, in cycles.
type Config struct {
	L1Size  int // bytes
	L1Assoc int
	L1Lat   uint64

	L2Size  int
	L2Assoc int
	L2Lat   uint64

	L3Size  int
	L3Assoc int
	L3Lat   uint64

	MemLat uint64 // RAM load-to-use
	C2CLat uint64 // dirty cache-to-cache transfer between cores

	TLB1Entries int    // L1 TLB, fully associative
	TLB2Entries int    // L2 TLB
	TLB2Assoc   int    // L2 TLB associativity
	TLB2Lat     uint64 // extra cycles on L1-TLB miss, L2 hit
	WalkLat     uint64 // extra cycles for a full page-table walk

	// StoresUseTLB enables TLB lookups for stores. PTLsim-ASF does not
	// consult the TLB for stores (documented quirk, §5); the default
	// Barcelona config leaves this false to match.
	StoresUseTLB bool

	// Sockets partitions the cores into that many equal sockets (cores
	// socket-major, see internal/topo). Each socket owns one L3 slice of
	// L3Size bytes; lines are home-sliced by address interleaving, so a
	// line only ever caches in its home socket's slice. 0 or 1 keeps the
	// single-socket model byte-identical to previous behaviour.
	Sockets int
	// XSockLat is the extra latency, in cycles, of one cross-socket
	// coherence-directory hop: charged when a miss must consult a remote
	// home slice or pull a dirty line from a core on another socket, and
	// when a write upgrade must probe holders across the socket boundary.
	// 0 selects DefaultXSockLat when Sockets > 1; irrelevant otherwise.
	XSockLat uint64
}

// Validate reports a geometry New cannot build: each cache level and the
// L2 TLB need at least one way and a power-of-two set count, and the L1 TLB
// at least one entry.
func (c Config) Validate() error {
	for _, l := range [...]struct {
		name        string
		size, assoc int
	}{{"L1", c.L1Size, c.L1Assoc}, {"L2", c.L2Size, c.L2Assoc}, {"L3", c.L3Size, c.L3Assoc}} {
		if l.assoc < 1 {
			return fmt.Errorf("cache: %s associativity %d, want at least 1", l.name, l.assoc)
		}
		if n := l.size / mem.LineSize / l.assoc; n < 1 || n&(n-1) != 0 {
			return fmt.Errorf("cache: %s of %d bytes at %d ways has %d sets, want a power of two",
				l.name, l.size, l.assoc, n)
		}
	}
	if c.TLB1Entries < 1 {
		return fmt.Errorf("cache: %d L1 TLB entries, want at least 1", c.TLB1Entries)
	}
	if c.TLB2Assoc < 1 {
		return fmt.Errorf("cache: L2 TLB associativity %d, want at least 1", c.TLB2Assoc)
	}
	if n := c.TLB2Entries / c.TLB2Assoc; n < 1 || n&(n-1) != 0 || n*c.TLB2Assoc != c.TLB2Entries {
		return fmt.Errorf("cache: %d L2 TLB entries at %d ways, want the ways times a power of two",
			c.TLB2Entries, c.TLB2Assoc)
	}
	return nil
}

// DefaultXSockLat is the cross-socket hop latency used when Config.XSockLat
// is zero on a multi-socket configuration: roughly one HyperTransport
// traversal at 2.2 GHz, sitting between the L3 (50) and RAM (210) charges.
const DefaultXSockLat = 90

// Barcelona returns the configuration used throughout the paper's
// evaluation (§5, "ASF simulator").
func Barcelona() Config {
	return Config{
		L1Size: 64 << 10, L1Assoc: 2, L1Lat: 3,
		L2Size: 512 << 10, L2Assoc: 16, L2Lat: 15,
		L3Size: 2 << 20, L3Assoc: 16, L3Lat: 50,
		MemLat: 210, C2CLat: 120,
		TLB1Entries: 48, TLB2Entries: 512, TLB2Assoc: 4,
		TLB2Lat: 5, WalkLat: 40,
		StoresUseTLB: false,
	}
}

// AccessResult reports where an access hit and what it cost.
type AccessResult struct {
	Cycles  uint64
	Level   Level // where the line was found
	TLBMiss bool  // required a page-table walk
}

// Level identifies the hierarchy level that served an access.
type Level uint8

const (
	L1 Level = iota
	L2
	L3
	Remote // dirty line transferred from another core's cache
	RAM
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Remote:
		return "remote"
	default:
		return "RAM"
	}
}

// EvictFn is called when a line leaves a core's private hierarchy entirely
// (displaced from L1 and not retained in L2, or invalidated by coherence).
// specRead reports whether the line carried the ASF speculative-read mark —
// the hybrid ASF variants abort on losing such a line.
type EvictFn func(core int, line mem.Addr, specRead bool)

// Stats counts accesses per core.
type Stats struct {
	Loads, Stores  uint64
	L1Hits, L2Hits uint64
	L3Hits, C2C    uint64
	MemFills       uint64
	TLB1Miss       uint64
	TLBWalks       uint64
	Evictions      uint64

	// XSockHops counts cross-socket directory hops this core's accesses
	// paid for (each one cost XSockLat cycles); L3RemoteHits counts the
	// subset of L3Hits served by a remote socket's home slice. Both stay
	// zero on single-socket configurations.
	XSockHops    uint64
	L3RemoteHits uint64
}

// Hierarchy is the full multicore memory system.
type Hierarchy struct {
	cfg   Config
	cores []coreCaches
	l3s   []array // one slice per socket; index 0 is the whole L3 when single-socket
	pool  blockPool
	dir   Directory
	stats []Stats

	sockets  int // ≥ 1
	coresPer int // cores per socket

	onEvict EvictFn
	tick    uint64 // LRU clock

	flushed []mem.Addr // FlushPrivate's line buffer, reused across calls
}

type coreCaches struct {
	l1, l2     array
	tlb1, tlb2 tlbArray
}

// New builds a hierarchy for n cores. cfg must pass Validate, and
// cfg.Sockets must divide n evenly; New panics otherwise, the backstop for
// direct users (asfstack.Build reports a bad geometry as an error, and the
// sim layer validates topologies before construction).
func New(n int, cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sockets := cfg.Sockets
	if sockets <= 1 {
		sockets = 1
	}
	if n%sockets != 0 {
		panic(fmt.Sprintf("cache: %d cores do not partition into %d sockets", n, sockets))
	}
	if sockets > 1 && cfg.XSockLat == 0 {
		cfg.XSockLat = DefaultXSockLat
	}
	h := &Hierarchy{
		cfg:      cfg,
		cores:    make([]coreCaches, n),
		l3s:      make([]array, sockets),
		dir:      NewDirectory(),
		stats:    make([]Stats, n),
		sockets:  sockets,
		coresPer: n / sockets,
	}
	for s := range h.l3s {
		h.l3s[s] = newArray(cfg.L3Size, cfg.L3Assoc, &h.pool)
	}
	for i := range h.cores {
		h.cores[i] = coreCaches{
			l1:   newArray(cfg.L1Size, cfg.L1Assoc, &h.pool),
			l2:   newArray(cfg.L2Size, cfg.L2Assoc, &h.pool),
			tlb1: newTLB(cfg.TLB1Entries, cfg.TLB1Entries), // fully associative
			tlb2: newTLB(cfg.TLB2Entries, cfg.TLB2Assoc),
		}
	}
	return h
}

// SetEvictHook installs the callback invoked when a line (and its
// speculative-read mark) is displaced from a core's private caches.
func (h *Hierarchy) SetEvictHook(fn EvictFn) { h.onEvict = fn }

// Stats returns the access counters for core c.
func (h *Hierarchy) Stats(c int) Stats { return h.stats[c] }

// Occupancy reports how many lines are resident in core c's private L1 and
// L2 — the occupancy gauges of the metrics layer. O(1): the arrays keep a
// resident-line count.
func (h *Hierarchy) Occupancy(c int) (l1, l2 int) {
	cc := &h.cores[c]
	return cc.l1.nValid, cc.l2.nValid
}

// sockOf returns the socket core c lives on (cores are socket-major).
func (h *Hierarchy) sockOf(c int) int { return c / h.coresPer }

// homeSock returns the socket owning line's L3 slice and directory home:
// lines interleave round-robin across sockets by line index, a pure
// function of the address so home assignment is deterministic.
func (h *Hierarchy) homeSock(line mem.Addr) int {
	if h.sockets == 1 {
		return 0
	}
	return int((uint64(line) >> mem.LineShift) % uint64(h.sockets))
}

// homeSlice returns the L3 slice lines of this address cache in.
func (h *Hierarchy) homeSlice(line mem.Addr) *array { return &h.l3s[h.homeSock(line)] }

// state returns the coherence-directory entry for line, creating a neutral
// one when it has none. It is the only call that inserts, and so the only
// one that may purge or grow the directory and move its slots. Access calls
// it once, before any other directory use; every later site only clears
// bits through Find or Release, so the pointer stays valid for the rest of
// the access.
func (h *Hierarchy) state(line mem.Addr) *LineState {
	return h.dir.GetOrInsert(line)
}

// Access simulates core c touching addr (write=true for stores) and returns
// the latency. It updates residency, coherence state and LRU, firing
// eviction callbacks as needed.
func (h *Hierarchy) Access(c int, addr mem.Addr, write bool) AccessResult {
	h.tick++
	line := addr.Line()
	cc := &h.cores[c]
	if write {
		h.stats[c].Stores++
	} else {
		h.stats[c].Loads++
	}

	var res AccessResult

	// TLB (loads only, unless configured otherwise).
	if !write || h.cfg.StoresUseTLB {
		res.Cycles += h.tlbLookup(c, addr.Page())
		if res.Cycles >= h.cfg.WalkLat {
			res.TLBMiss = true
		}
	}

	if e := cc.l1.lookup(line); e != nil {
		// L1 hit: plain reads need no directory consultation at all —
		// an L1-resident line always has a directory entry holding this
		// core's bit (so no purge deletes it), and reads don't change
		// coherence state.
		e.lastUse = h.tick
		res.Level = L1
		res.Cycles += h.cfg.L1Lat
		h.stats[c].L1Hits++
		if write {
			res.Cycles += h.upgrade(c, line, h.state(line))
			e.setDirty(true)
		}
		return res
	}

	ls := h.state(line)
	mask := uint64(1) << uint(c)

	// L1 miss: find the line further out, then fill into L1. On a
	// multi-socket machine any path past the private L2 consults line's
	// home directory; when that home — or a dirty owner — sits on another
	// socket, the access pays XSockLat per boundary crossed.
	mySock := h.sockOf(c)
	owner := ls.Owner()
	switch {
	case cc.l2.lookup(line) != nil:
		res.Level = L2
		res.Cycles += h.cfg.L2Lat
		h.stats[c].L2Hits++
	case owner >= 0 && owner != c:
		// Dirty in another core's private cache: cache-to-cache transfer,
		// routed through the home directory.
		res.Level = Remote
		res.Cycles += h.cfg.C2CLat
		if h.sockets > 1 {
			if h.homeSock(line) != mySock {
				res.Cycles += h.cfg.XSockLat
				h.stats[c].XSockHops++
			}
			if h.sockOf(owner) != mySock {
				res.Cycles += h.cfg.XSockLat
				h.stats[c].XSockHops++
			}
		}
		h.stats[c].C2C++
		h.downgrade(owner, line, write)
	case h.homeSlice(line).lookup(line) != nil:
		res.Level = L3
		res.Cycles += h.cfg.L3Lat
		h.stats[c].L3Hits++
		if hs := h.homeSock(line); hs != mySock {
			res.Cycles += h.cfg.XSockLat
			h.stats[c].XSockHops++
			h.stats[c].L3RemoteHits++
		}
	default:
		res.Level = RAM
		res.Cycles += h.cfg.MemLat
		if h.homeSock(line) != mySock {
			res.Cycles += h.cfg.XSockLat
			h.stats[c].XSockHops++
		}
		h.stats[c].MemFills++
		h.fill(h.homeSlice(line), line)
	}

	if write {
		res.Cycles += h.upgrade(c, line, ls)
	}

	// Install in the private hierarchy. Nothing since state() inserted into
	// the directory, so ls still points at line's slot.
	h.fillPrivate(c, line, write)
	ls.Holders |= mask
	if write {
		ls.SetOwner(c)
	}
	return res
}

// upgrade obtains write permission: invalidates all other private copies.
// Returns extra latency if any probe was needed.
func (h *Hierarchy) upgrade(c int, line mem.Addr, ls *LineState) uint64 {
	var cost uint64
	others := ls.Holders &^ (1 << uint(c))
	owner := ls.Owner()
	if others != 0 || (owner >= 0 && owner != c) {
		cost = h.cfg.L1Lat * 8 // invalidation probe round-trip
		if h.sockets > 1 {
			// One extra hop if any holder (or the dirty owner) sits on
			// another socket: the probes fan out in parallel over the
			// socket link, so the boundary is paid once, not per core.
			mySock := h.sockOf(c)
			cross := owner >= 0 && owner != c && h.sockOf(owner) != mySock
			for o, rem := 0, others; !cross && rem != 0; o, rem = o+1, rem>>1 {
				if rem&1 != 0 && h.sockOf(o) != mySock {
					cross = true
				}
			}
			if cross {
				cost += h.cfg.XSockLat
				h.stats[c].XSockHops++
			}
		}
	}
	for o := 0; others != 0; o++ {
		if others&1 != 0 {
			h.invalidate(o, line)
		}
		others >>= 1
	}
	// Re-read the owner: invalidating it as a holder above cleared it.
	if o := ls.Owner(); o >= 0 && o != c {
		h.downgrade(o, line, true)
	}
	ls.Holders &= 1 << uint(c)
	ls.SetOwner(c)
	return cost
}

// downgrade handles a remote probe hitting core o's dirty line: the data is
// written back (to the line's home L3 slice in this model). If forWrite,
// the copy is invalidated.
func (h *Hierarchy) downgrade(o int, line mem.Addr, forWrite bool) {
	if ls := h.dir.Find(line); ls != nil && ls.Owner() == o {
		ls.SetOwner(-1)
	}
	h.fill(h.homeSlice(line), line)
	if forWrite {
		h.invalidate(o, line)
	} else {
		if e := h.cores[o].l1.lookup(line); e != nil {
			e.setDirty(false)
		}
		if e := h.cores[o].l2.lookup(line); e != nil {
			e.setDirty(false)
		}
	}
}

// invalidate removes line from core o's private caches (coherence
// invalidation). The speculative-read mark, if set, is surfaced through the
// eviction hook exactly like a displacement: losing the line means losing
// ASF's ability to monitor it.
func (h *Hierarchy) invalidate(o int, line mem.Addr) {
	spec := false
	if e := h.cores[o].l1.lookup(line); e != nil {
		spec = spec || e.specRead()
		h.cores[o].l1.remove(line)
	}
	h.cores[o].l2.remove(line)
	h.dir.Release(o, line)
	h.stats[o].Evictions++
	if h.onEvict != nil {
		h.onEvict(o, line, spec)
	}
}

// fillPrivate installs line into core c's L1 (and L2), handling victims.
func (h *Hierarchy) fillPrivate(c int, line mem.Addr, dirty bool) {
	cc := &h.cores[c]
	if v, ok := cc.l1.insert(line, h.tick); ok {
		// L1 victim drops to L2.
		vl := v.line()
		if v.dirty() {
			if e2 := cc.l2.lookup(vl); e2 != nil {
				e2.setDirty(true)
			}
		}
		if cc.l2.lookup(vl) == nil {
			if v2, ok2 := cc.l2.insert(vl, h.tick); ok2 {
				h.dropFromPrivate(c, v2)
			}
			// Move entry metadata: the victim left L1 but stays private.
			if e2 := cc.l2.lookup(vl); e2 != nil {
				e2.setDirty(v.dirty())
				e2.setSpecRead(v.specRead())
				v.setSpecRead(false)
			}
		}
		if v.specRead() {
			// The mark could not be preserved (line already in L2):
			// treat as lost, like PTLsim-ASF's displacement behaviour.
			h.stats[c].Evictions++
			if h.onEvict != nil {
				h.onEvict(c, vl, true)
			}
			// Only the holder bit goes: a dirty line keeps its owner, and
			// its slot with it.
			if ls := h.dir.Find(vl); ls != nil {
				ls.Holders &^= 1 << uint(c)
			}
		}
	}
	if e := cc.l1.lookup(line); e != nil && dirty {
		e.setDirty(true)
	}
	if cc.l2.lookup(line) == nil {
		if v2, ok2 := cc.l2.insert(line, h.tick); ok2 {
			h.dropFromPrivate(c, v2)
		}
	}
}

// dropFromPrivate handles a line leaving the private hierarchy entirely
// (L2 victim): write back to its home L3 slice and report the eviction.
func (h *Hierarchy) dropFromPrivate(c int, v entry) {
	vl := v.line()
	if h.cores[c].l1.lookup(vl) != nil {
		// Still in L1 (non-inclusive); the private copy survives.
		return
	}
	h.fill(h.homeSlice(vl), vl)
	h.dir.Release(c, vl)
	h.stats[c].Evictions++
	if h.onEvict != nil {
		h.onEvict(c, vl, v.specRead())
	}
}

func (h *Hierarchy) fill(a *array, line mem.Addr) {
	if a.lookup(line) == nil {
		a.insert(line, h.tick)
	}
}

// SetSpecRead marks (or clears) the ASF speculative-read bit on core c's L1
// copy of line. Returns false if the line is not L1-resident (the caller
// must have just accessed it, so this indicates an associativity conflict
// evicted it immediately — treated by ASF as a capacity condition).
func (h *Hierarchy) SetSpecRead(c int, line mem.Addr, on bool) bool {
	if e := h.cores[c].l1.lookup(line.Line()); e != nil {
		e.setSpecRead(on)
		return true
	}
	return false
}

// FlashClearSpecRead clears every speculative-read bit in core c's L1, the
// single-cycle flash-clear a commit or abort performs.
func (h *Hierarchy) FlashClearSpecRead(c int) {
	h.cores[c].l1.forEach(func(e *entry) { e.setSpecRead(false) })
}

// L1Resident reports whether line is in core c's L1.
func (h *Hierarchy) L1Resident(c int, line mem.Addr) bool {
	return h.cores[c].l1.lookup(line.Line()) != nil
}

// Drop silently removes line from core c's private caches without firing
// the eviction hook. The ASF abort path uses it to discard speculatively
// written lines whose data is being rolled back.
func (h *Hierarchy) Drop(c int, line mem.Addr) {
	line = line.Line()
	h.cores[c].l1.remove(line)
	h.cores[c].l2.remove(line)
	h.dir.Release(c, line)
}

func (h *Hierarchy) tlbLookup(c int, page mem.Addr) uint64 {
	cc := &h.cores[c]
	if cc.tlb1.lookup(page, h.tick) {
		return 0
	}
	h.stats[c].TLB1Miss++
	if cc.tlb2.lookup(page, h.tick) {
		cc.tlb1.insert(page, h.tick)
		return h.cfg.TLB2Lat
	}
	h.stats[c].TLBWalks++
	cc.tlb2.insert(page, h.tick)
	cc.tlb1.insert(page, h.tick)
	return h.cfg.WalkLat
}

// FlushPrivate writes back and drops every line in core c's private
// caches, leaving the data in L3. Models the cache state at PTLsim's
// native-to-simulated switchover: the measured phase starts with cold
// private caches regardless of which core ran initialisation.
func (h *Hierarchy) FlushPrivate(c int) {
	cc := &h.cores[c]
	l1, l2 := h.Occupancy(c)
	h.flushed = slices.Grow(h.flushed[:0], l1+l2)
	cc.l1.forEach(func(e *entry) { h.flushed = append(h.flushed, e.line()) })
	cc.l2.forEach(func(e *entry) { h.flushed = append(h.flushed, e.line()) })
	for _, line := range h.flushed {
		h.fill(h.homeSlice(line), line)
		cc.l1.remove(line)
		cc.l2.remove(line)
		h.dir.Release(c, line)
	}
}

// FlushTLB drops all of core c's TLB entries (context switch / interrupt).
func (h *Hierarchy) FlushTLB(c int) {
	h.cores[c].tlb1.flush()
	h.cores[c].tlb2.flush()
}
