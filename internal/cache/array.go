package cache

import "asfstack/internal/mem"

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

// array is a set-associative cache array with LRU replacement. The ways of
// set s occupy ents[s*assoc : (s+1)*assoc]; lookups scan the (small) set
// directly rather than going through a side map — at 2–16 ways the scan
// stays within a couple of cache lines and beats map hashing, and it keeps
// the hot path free of map machinery entirely.
type array struct {
	ents    []entry
	assoc   int
	setMask mem.Addr
	nValid  int // resident-line count, backing the occupancy gauges
}

func newArray(sizeBytes, assoc int) *array {
	nSets := sizeBytes / mem.LineSize / assoc
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	return &array{
		ents:    make([]entry, nSets*assoc),
		assoc:   assoc,
		setMask: mem.Addr(nSets - 1),
	}
}

func (a *array) setFor(line mem.Addr) []entry {
	s := int((line>>mem.LineShift)&a.setMask) * a.assoc
	return a.ents[s : s+a.assoc]
}

// lookup returns the entry for line, or nil.
func (a *array) lookup(line mem.Addr) *entry {
	set := a.setFor(line)
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
	set := a.setFor(line)
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
	if slot.valid() {
		victim, evicted = *slot, true
	} else {
		a.nValid++
	}
	*slot = entry{tag: line | entValid, lastUse: now}
	return victim, evicted
}

// remove invalidates line if present.
func (a *array) remove(line mem.Addr) {
	if e := a.lookup(line); e != nil {
		*e = entry{}
		a.nValid--
	}
}

// forEach visits every valid entry in (set, way) order. Iteration must be
// deterministic: FlushPrivate refills L3 in this order, and hash order
// would leak into L3's LRU state and make measured-phase timings vary from
// run to run.
func (a *array) forEach(fn func(*entry)) {
	for i := range a.ents {
		if a.ents[i].valid() {
			fn(&a.ents[i])
		}
	}
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

func newTLB(entries, assoc int) *tlbArray {
	nSets := entries / assoc
	if nSets == 0 {
		nSets = 1
	}
	// Round set count up to a power of two for masking; fully associative
	// TLBs (assoc == entries) have one set and are unaffected.
	p := 1
	for p < nSets {
		p <<= 1
	}
	return &tlbArray{
		ents:    make([]tlbEntry, p*assoc),
		assoc:   assoc,
		setMask: mem.Addr(p - 1),
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
