package cache

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"asfstack/internal/mem"
)

// TestPackedEntrySizes pins the 16-byte cache and TLB entries and directory
// slots: the arrays, the TLBs and the directory's growth are most of what a
// hierarchy allocates.
func TestPackedEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Errorf("entry is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(tlbEntry{}); n != 16 {
		t.Errorf("tlbEntry is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(LineState{}); n != 16 {
		t.Errorf("LineState is %d bytes, want 16", n)
	}
}

// TestEntryTagEncoding: the dirty and speculative-read flags share the
// tag with the line address without changing which line it names.
func TestEntryTagEncoding(t *testing.T) {
	const sets = 512 // 64 KB, 2-way
	for _, line := range []mem.Addr{0, 0x1240, 0x7fff_ffc0} {
		for _, tc := range []struct {
			name            string
			dirty, specRead bool
		}{
			{"clean", false, false},
			{"dirty", true, false},
			{"specRead", false, true},
			{"dirty+specRead", true, true},
		} {
			a := newArray(64<<10, 2, new(blockPool))
			a.insert(line, 1)
			e := a.lookup(line)
			e.setDirty(tc.dirty)
			e.setSpecRead(tc.specRead)
			if got := a.lookup(line); got != e {
				t.Fatalf("%v %s: lookup lost the line", line, tc.name)
			}
			if !e.valid() || e.line() != line || e.dirty() != tc.dirty || e.specRead() != tc.specRead {
				t.Fatalf("%v %s: valid %v, line %v, dirty %v, specRead %v",
					line, tc.name, e.valid(), e.line(), e.dirty(), e.specRead())
			}
			other := line + sets*mem.LineSize // same set, different line
			if a.lookup(other) != nil {
				t.Fatalf("%v %s: %v matched", line, tc.name, other)
			}
			a.remove(line)
			if e.tag != 0 || a.lookup(line) != nil || a.nValid != 0 {
				t.Fatalf("%v %s: remove left tag %#x, %d valid", line, tc.name, uint64(e.tag), a.nValid)
			}
		}
	}
}

// refArray is the reference model for array: every set's ways held in one
// eager slice per set, with the replacement rule spelled out (the first
// invalid way, else the least recently used one). high records the highest
// way each set has used, -1 before its first insert.
type refArray struct {
	sets   [][]entry
	high   []int
	nValid int
}

func newRefArray(sizeBytes, assoc int) *refArray {
	r := &refArray{sets: make([][]entry, sizeBytes/mem.LineSize/assoc)}
	r.high = make([]int, len(r.sets))
	for i := range r.sets {
		r.sets[i] = make([]entry, assoc)
		r.high[i] = -1
	}
	return r
}

func (r *refArray) index(line mem.Addr) int {
	return int(line>>mem.LineShift) % len(r.sets)
}

func (r *refArray) lookup(line mem.Addr) *entry {
	set := r.sets[r.index(line)]
	for i := range set {
		if set[i].valid() && set[i].line() == line {
			return &set[i]
		}
	}
	return nil
}

func (r *refArray) insert(line mem.Addr, now uint64) (victim entry, evicted bool) {
	s := r.index(line)
	set := r.sets[s]
	way := -1
	for i := range set {
		if !set[i].valid() {
			way = i
			break
		}
	}
	if way < 0 {
		way = 0
		for i := range set {
			if set[i].lastUse < set[way].lastUse {
				way = i
			}
		}
		victim, evicted = set[way], true
	} else {
		r.nValid++
	}
	set[way] = entry{tag: line | entValid, lastUse: now}
	r.high[s] = max(r.high[s], way)
	return victim, evicted
}

func (r *refArray) remove(line mem.Addr) {
	if e := r.lookup(line); e != nil {
		*e = entry{}
		r.nValid--
	}
}

// valid returns the valid entries in (set, way) order.
func (r *refArray) valid() []entry {
	var out []entry
	for _, set := range r.sets {
		for _, e := range set {
			if e.valid() {
				out = append(out, e)
			}
		}
	}
	return out
}

// checkWays fails unless every block of a has the way count its sets call
// for: none before the first insert into one of them, else the smallest of
// 1, 4, 16, ... (capped at the associativity) above the highest way any of
// them has used in ref.
func checkWays(t *testing.T, op uint64, a *array, ref *refArray) {
	t.Helper()
	per := len(ref.sets) / len(a.blocks)
	for b, blk := range a.blocks {
		high := slices.Max(ref.high[b*per : (b+1)*per])
		want := 0
		for high >= want {
			want = min(max(4*want, 1), a.assoc)
		}
		if got := len(blk) >> a.blockShift; got != want || len(blk) != want*per {
			t.Fatalf("op %d: block %d has %d entries, %d ways per set; want %d ways (highest way used %d)",
				op, b, len(blk), got, want, high)
		}
	}
}

// geometries are the arrays the array tests run on: the Barcelona L1, L2
// and L3, a 3-way array whose ways grow 1, 3, and a single 512-way set
// whose ways grow 1, 4, 16, 64, 256, 512.
var geometries = []struct {
	name        string
	size, assoc int
}{
	{"L1", 64 << 10, 2},
	{"L2", 512 << 10, 16},
	{"L3", 2 << 20, 16},
	{"3-way", 3 * 512 * mem.LineSize, 3},
	{"512-way", 512 * mem.LineSize, 512},
}

// TestArrayMatchesReference drives random insert, lookup, remove, flag and
// forEach streams against the reference model, and checks every block's
// way count after each operation. Lines fall in a handful of sets: the
// first and the last, the two on either side of the first block boundary
// (set setsPerBlock), and a few at random. The first fills go to those sets
// last to first, so blocks fill out of index order, and each set sees
// enough distinct lines to evict.
func TestArrayMatchesReference(t *testing.T) {
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.assoc)))
			a := newArray(g.size, g.assoc, new(blockPool))
			ref := newRefArray(g.size, g.assoc)
			nSets := len(ref.sets)
			sets := []int{0, (setsPerBlock - 1) % nSets, setsPerBlock % nSets, nSets - 1}
			for i := 0; i < 3; i++ {
				sets = append(sets, rng.Intn(nSets))
			}
			lineIn := func(set int) mem.Addr {
				tag := rng.Intn(2 * g.assoc)
				if rng.Intn(16) == 0 {
					tag += 1 << 40 // a high line of the same set
				}
				return mem.Addr(tag*nSets+set) << mem.LineShift
			}
			// fill inserts line, or touches it when resident, as
			// Hierarchy.fill does.
			fill := func(line mem.Addr, now uint64) {
				if e := ref.lookup(line); e != nil {
					e.lastUse = now
					a.lookup(line).lastUse = now
					return
				}
				wv, wok := ref.insert(line, now)
				if v, ok := a.insert(line, now); v != wv || ok != wok {
					t.Fatalf("op %d: insert %v evicted %+v %v, want %+v %v", now, line, v, ok, wv, wok)
				}
			}
			var got []entry
			collect := func(e *entry) { got = append(got, *e) }
			checkForEach := func(now uint64) {
				got = got[:0]
				a.forEach(collect)
				if want := ref.valid(); !slices.Equal(got, want) || len(want) != ref.nValid {
					t.Fatalf("op %d: forEach visited %d entries %+v, want %d %+v", now, len(got), got, len(want), want)
				}
			}
			now := uint64(0)
			checkWays(t, now, &a, ref)
			for i := len(sets) - 1; i >= 0; i-- {
				now++
				fill(lineIn(sets[i]), now)
				checkWays(t, now, &a, ref)
			}
			for ; now <= 20_000; now++ {
				line := lineIn(sets[rng.Intn(len(sets))])
				switch op := rng.Intn(20); {
				case op < 9:
					fill(line, now)
				case op < 14:
					e, w := a.lookup(line), ref.lookup(line)
					if (e == nil) != (w == nil) || e != nil && *e != *w {
						t.Fatalf("op %d: lookup %v = %+v, want %+v", now, line, e, w)
					}
				case op < 17:
					a.remove(line)
					ref.remove(line)
				case op < 19:
					if e := a.lookup(line); e != nil {
						dirty, spec := rng.Intn(2) == 0, rng.Intn(2) == 0
						e.setDirty(dirty)
						e.setSpecRead(spec)
						w := ref.lookup(line)
						w.setDirty(dirty)
						w.setSpecRead(spec)
					}
				default:
					checkForEach(now)
				}
				if a.nValid != ref.nValid {
					t.Fatalf("op %d: nValid = %d, want %d", now, a.nValid, ref.nValid)
				}
				checkWays(t, now, &a, ref)
			}
			checkForEach(now)
		})
	}
}

// TestWidenKeepsFlags: the dirty and speculative-read flags of resident
// lines survive every widening of their block. One line goes into each set
// of the first block, then set 0 fills way by way until it has every way;
// each line gets its flags right after its insert, before the next widening,
// and after every insert every line of the block must still be resident,
// clean or flagged as it was left.
func TestWidenKeepsFlags(t *testing.T) {
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			a := newArray(g.size, g.assoc, new(blockPool))
			nSets := g.size / mem.LineSize / g.assoc
			per := min(nSets, setsPerBlock)
			type flagged struct {
				line            mem.Addr
				dirty, specRead bool
			}
			var lines []flagged
			add := func(set, tag int) {
				l := flagged{line: mem.Addr(tag*nSets+set) << mem.LineShift}
				n := len(lines)
				l.dirty, l.specRead = n%2 == 0, n%3 != 1
				if _, evicted := a.insert(l.line, uint64(n+1)); evicted {
					t.Fatalf("insert %d (set %d, tag %d) evicted a line", n, set, tag)
				}
				e := a.lookup(l.line)
				e.setDirty(l.dirty)
				e.setSpecRead(l.specRead)
				lines = append(lines, l)
				for _, l := range lines {
					e := a.lookup(l.line)
					if e == nil || e.dirty() != l.dirty || e.specRead() != l.specRead {
						t.Fatalf("after insert %d (set %d, %d ways): line %v is %+v, want dirty %v, specRead %v",
							n, set, len(a.blocks[0])/per, l.line, e, l.dirty, l.specRead)
					}
				}
			}
			for set := per - 1; set >= 0; set-- {
				add(set, 0)
			}
			for tag := 1; tag < g.assoc; tag++ {
				add(0, tag)
			}
			if ways := len(a.blocks[0]) / per; ways != g.assoc {
				t.Fatalf("set 0 is full at %d ways, want %d", ways, g.assoc)
			}
		})
	}
}
