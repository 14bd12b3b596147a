package cache

import (
	"math/bits"

	"asfstack/internal/mem"
	"asfstack/internal/slab"
)

// entry is one cache line's bookkeeping, packed into 16 bytes. Data values
// live in mem.Memory; the entry only tracks residency, dirtiness, recency,
// and the ASF speculative-read mark used by the hybrid implementation
// variants. tag is the line address with those three flags in its low
// bits, which line alignment leaves free; an invalid entry has a zero tag.
type entry struct {
	tag     mem.Addr
	lastUse uint64
}

const (
	entValid mem.Addr = 1 << iota
	entDirty
	entSpecRead

	entFlags = mem.LineSize - 1
)

func (e *entry) valid() bool    { return e.tag&entValid != 0 }
func (e *entry) dirty() bool    { return e.tag&entDirty != 0 }
func (e *entry) specRead() bool { return e.tag&entSpecRead != 0 }
func (e *entry) line() mem.Addr { return e.tag &^ entFlags }

func (e *entry) setDirty(on bool)    { e.setFlag(entDirty, on) }
func (e *entry) setSpecRead(on bool) { e.setFlag(entSpecRead, on) }

func (e *entry) setFlag(f mem.Addr, on bool) {
	if on {
		e.tag |= f
	} else {
		e.tag &^= f
	}
}

// array is a set-associative cache array with LRU replacement. Lookups scan
// the (small) set directly rather than going through a side map — at 2–16
// ways the scan stays within a couple of cache lines and beats map hashing,
// and it keeps the hot path free of map machinery entirely.
//
// The entries live in blocks. Block b holds sets [b<<blockShift,
// (b+1)<<blockShift), setsPerBlock of them or every set when the array has
// fewer. All sets of a block have the same number of ways, len(blk) >>
// blockShift, each set's ways contiguous. A block has no ways until the
// first insert into one of its sets, then one. An insert that finds every
// way of its set valid widens the block four-fold, up to assoc, and takes
// the first new way: the host pays for the lines a run keeps resident, not
// for the whole geometry, and a miss in a sparse set scans few ways.
//
// Widening is exact. An insert always takes the first invalid way, so a set
// whose occupancy never passed k has used only ways [0, k); the ways a
// block has not grown yet are the invalid ways after them. Victim choice,
// LRU tie-breaks and forEach's (set, way) order therefore match an array
// built with every way. An insert may move its block's entries, so no
// *entry may be held across an insert into the same array.
type array struct {
	blocks     [][]entry // a block's sets have len(blk) >> blockShift ways each
	pool       *blockPool
	assoc      int
	setMask    mem.Addr
	blockShift uint     // log2 of the sets per block
	offMask    mem.Addr // sets per block - 1: a set's index within its block
	nValid     int      // resident-line count, backing the occupancy gauges
}

// setsPerBlock is how many sets share a block and its way count.
const setsPerBlock = 16

// newArray builds an array of sizeBytes at assoc ways, whose set count
// Config.Validate has checked is a power of two. Its blocks come from pool.
func newArray(sizeBytes, assoc int, pool *blockPool) array {
	nSets := sizeBytes / mem.LineSize / assoc
	shift := uint(bits.TrailingZeros(uint(min(nSets, setsPerBlock))))
	return array{
		blocks:     make([][]entry, nSets>>shift),
		pool:       pool,
		assoc:      assoc,
		setMask:    mem.Addr(nSets - 1),
		blockShift: shift,
		offMask:    1<<shift - 1,
	}
}

// lookup returns the entry for line, or nil. It stays small enough to
// inline into the L1-hit path.
func (a *array) lookup(line mem.Addr) *entry {
	s := (line >> mem.LineShift) & a.setMask
	blk := a.blocks[s>>a.blockShift]
	ways := len(blk) >> a.blockShift
	set := blk[int(s&a.offMask)*ways:][:ways]
	want := line | entValid
	for i := range set {
		if set[i].tag&^(entDirty|entSpecRead) == want {
			return &set[i]
		}
	}
	return nil
}

// insert places line into its set, returning the displaced victim (by
// value) and true if a valid line was evicted.
func (a *array) insert(line mem.Addr, now uint64) (victim entry, evicted bool) {
	s := (line >> mem.LineShift) & a.setMask
	b, off := s>>a.blockShift, int(s&a.offMask)
	ways := len(a.blocks[b]) >> a.blockShift
	set := a.blocks[b][off*ways:][:ways]
	var slot *entry
	for i := range set {
		e := &set[i]
		if !e.valid() {
			slot = e
			break
		}
		if slot == nil || e.lastUse < slot.lastUse {
			slot = e
		}
	}
	if ways < a.assoc && (slot == nil || slot.valid()) {
		// Every way the set has is valid, so the first invalid way of
		// the full set is the next one: widen and take it.
		blk := a.widen(b, ways)
		slot = &blk[off*(len(blk)>>a.blockShift)+ways]
	}
	if slot.valid() {
		victim, evicted = *slot, true
	} else {
		a.nValid++
	}
	*slot = entry{tag: line | entValid, lastUse: now}
	return victim, evicted
}

// widen replaces block b, whose sets have ways ways, by one whose sets have
// four times as many (one when the block is empty), capped at assoc. Each
// set's ways keep their order, followed by invalid ones. The old block
// stays unused in its chunk.
func (a *array) widen(b mem.Addr, ways int) []entry {
	next := min(max(4*ways, 1), a.assoc)
	old, blk := a.blocks[b], a.pool.carve(next<<a.blockShift)
	for s := range 1 << a.blockShift {
		copy(blk[s*next:], old[s*ways:(s+1)*ways])
	}
	a.blocks[b] = blk
	return blk
}

// remove invalidates line if present.
func (a *array) remove(line mem.Addr) {
	if e := a.lookup(line); e != nil {
		*e = entry{}
		a.nValid--
	}
}

// forEach visits every valid entry in (set, way) order, walking the blocks
// in order. Iteration must be deterministic: FlushPrivate refills L3 in
// this order, and hash order would leak into L3's LRU state and make
// measured-phase timings vary from run to run.
func (a *array) forEach(fn func(*entry)) {
	for _, blk := range a.blocks {
		for i := range blk {
			if blk[i].valid() {
				fn(&blk[i])
			}
		}
	}
}

// blockPool carves array blocks from chunks of poolChunk entries, shared by
// every array of a hierarchy. A chunk is never moved while the hierarchy
// is in use, and a block outgrown by widen stays where it is, unused; a
// chunk's tail too short for the next block is left unused too. The chunks
// come from a process-wide free list, and release hands back the ones the
// pool recorded.
type blockPool struct {
	free   []entry
	chunks [poolChunks][]entry // the first poolChunks chunks carved from
	n      int                 // how many of chunks are recorded
}

// poolChunk is how many entries the pool allocates at a time, 128 KiB. An
// access inserts into at most six sets: its line's L1, L2 and L3 sets, the
// L1 victim's L2 set and the two L2 victims' L3 sets. So it widens at most
// six blocks, of at most 256 entries each on the Barcelona geometry, and
// allocates at most one chunk.
const poolChunk = 8 << 10

// poolChunks is how many chunks a pool records for release, 4 MiB of
// blocks; chunks past it are left to the garbage collector. A cell of the
// four benchmark sweeps carves at most 18. The record is an array in the
// pool, not a list grown by append, so recording a chunk allocates
// nothing and an access still allocates at most the chunk itself.
const poolChunks = 32

// blockChunks holds the chunks of released hierarchies.
var blockChunks slab.List[[]entry]

func (p *blockPool) carve(n int) []entry {
	if len(p.free) < n {
		p.free = slab.Take(&blockChunks, max(poolChunk, n))
		if p.n < poolChunks {
			p.chunks[p.n] = p.free
			p.n++
		}
	}
	blk := p.free[:n:n]
	p.free = p.free[n:]
	return blk
}

// release hands the recorded chunks to the free list and empties the
// pool. The arrays carved from it must not be used again.
func (p *blockPool) release() {
	for _, c := range p.chunks[:p.n] {
		slab.Give(&blockChunks, c)
	}
	*p = blockPool{}
}

// tlbArray is a set-associative TLB with LRU replacement over page numbers.
// last caches the most recent hit: consecutive accesses overwhelmingly land
// on the same page, and the pointer check skips the set scan (48 ways for
// the fully associative L1 TLB). The cached entry is in the array proper,
// so the lastUse update through it keeps LRU state exactly as a scan would.
type tlbArray struct {
	ents    []tlbEntry
	assoc   int
	setMask mem.Addr
	last    *tlbEntry
}

// tlbEntry packs into 16 bytes: key is the page address with bit 0 set
// (page alignment leaves it free), or zero for an invalid entry.
type tlbEntry struct {
	key     mem.Addr
	lastUse uint64
}

const tlbValid mem.Addr = 1

func (e *tlbEntry) valid() bool { return e.key != 0 }

// tlbArrays holds the entry arrays of released hierarchies' TLBs.
var tlbArrays slab.List[[]tlbEntry]

// newTLB builds a TLB of entries at assoc ways, whose set count
// Config.Validate has checked is a power of two; the fully associative L1
// TLB has one set.
func newTLB(entries, assoc int) tlbArray {
	return tlbArray{
		ents:    slab.Take(&tlbArrays, entries),
		assoc:   assoc,
		setMask: mem.Addr(entries/assoc - 1),
	}
}

func (t *tlbArray) setFor(page mem.Addr) []tlbEntry {
	s := int((page>>mem.PageShift)&t.setMask) * t.assoc
	return t.ents[s : s+t.assoc]
}

func (t *tlbArray) lookup(page mem.Addr, now uint64) bool {
	key := page | tlbValid
	if e := t.last; e != nil && e.key == key {
		e.lastUse = now
		return true
	}
	set := t.setFor(page)
	for i := range set {
		if set[i].key == key {
			set[i].lastUse = now
			t.last = &set[i]
			return true
		}
	}
	return false
}

func (t *tlbArray) insert(page mem.Addr, now uint64) {
	set := t.setFor(page)
	var slot *tlbEntry
	for i := range set {
		e := &set[i]
		if !e.valid() {
			slot = e
			break
		}
		if slot == nil || e.lastUse < slot.lastUse {
			slot = e
		}
	}
	*slot = tlbEntry{key: page | tlbValid, lastUse: now}
	t.last = slot
}

func (t *tlbArray) flush() {
	for i := range t.ents {
		t.ents[i] = tlbEntry{}
	}
	t.last = nil
}
