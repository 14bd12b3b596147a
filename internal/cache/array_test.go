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
	if n := unsafe.Sizeof(lineState{}); n != 16 {
		t.Errorf("lineState is %d bytes, want 16", n)
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
// invalid way, else the least recently used one).
type refArray struct {
	sets   [][]entry
	nValid int
}

func newRefArray(sizeBytes, assoc int) *refArray {
	r := &refArray{sets: make([][]entry, sizeBytes/mem.LineSize/assoc)}
	for i := range r.sets {
		r.sets[i] = make([]entry, assoc)
	}
	return r
}

func (r *refArray) set(line mem.Addr) []entry {
	return r.sets[int(line>>mem.LineShift)%len(r.sets)]
}

func (r *refArray) lookup(line mem.Addr) *entry {
	set := r.set(line)
	for i := range set {
		if set[i].valid() && set[i].line() == line {
			return &set[i]
		}
	}
	return nil
}

func (r *refArray) insert(line mem.Addr, now uint64) (victim entry, evicted bool) {
	set := r.set(line)
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

// TestArrayMatchesReference drives random insert, lookup, remove, flag and
// forEach streams against the reference model. Lines fall in a handful of
// sets: the first and the last, the two on either side of entry blockEnts
// (where a block cut at a fixed entry count would split a set), and a few
// at random. The first fills go to those sets last to first, so blocks are
// carved out of index order, and each set sees enough distinct lines to
// evict. The geometries are the Barcelona L1, L2 and L3, a 3-way array
// whose sets do not divide blockEnts, and a single 512-way set larger than
// blockEnts.
func TestArrayMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name        string
		size, assoc int
	}{
		{"L1", 64 << 10, 2},
		{"L2", 512 << 10, 16},
		{"L3", 2 << 20, 16},
		{"3-way", 3 * 512 * mem.LineSize, 3},
		{"512-way", 512 * mem.LineSize, 512},
	} {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.assoc)))
			a := newArray(g.size, g.assoc, new(blockPool))
			ref := newRefArray(g.size, g.assoc)
			nSets := len(ref.sets)
			edge := (blockEnts - 1) / g.assoc
			sets := []int{0, edge % nSets, (edge + 1) % nSets, nSets - 1}
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
			for i := len(sets) - 1; i >= 0; i-- {
				now++
				fill(lineIn(sets[i]), now)
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
			}
			checkForEach(now)
		})
	}
}
