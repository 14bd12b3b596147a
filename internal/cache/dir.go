package cache

import (
	"fmt"

	"asfstack/internal/mem"
	"asfstack/internal/slab"
)

// Directory is a flat line directory: an open-addressed hash table of
// LineState slots, each holding its line's address, a core mask and an
// owner core inline. The hierarchy keeps its coherence directory in one
// (holders are the cores with a private copy, the owner the core holding
// the line modified); the ASF facility keeps its protection directory in
// another (holders are the cores monitoring the line, the owner its
// speculative writer).
//
// Invariants its users rely on:
//
//   - Only live lines are sure to keep a slot. A neutral slot (no holders,
//     no owner) answers every reader exactly like an absent line, so an
//     insert that finds the table at its 3/4 load limit first purges the
//     neutral slots, and doubles the table only if the live ones still
//     fill more than 5/8 of it. A slot holding only an owner is live and
//     survives.
//   - Pointers returned by GetOrInsert and Find stay valid until the next
//     GetOrInsert that inserts, which may purge or grow. Find and Release
//     never insert, so no slot moves across them.
//   - Slot order never reaches simulated timing: lookups follow a line's
//     own probe run, and a purge only deletes neutral slots.
//   - Every line is below mem.MaxAddr, which the packed key needs.
type Directory struct {
	slots []LineState
	used  int
	shift uint // 64 - log2(len(slots)); used by the multiplicative hash
}

// LineState is one directory slot, packed into 16 bytes. key is the line
// address shifted left by two (its low 8 bits are then zero, and lines
// below mem.MaxAddr lose no high bits), with the owner plus one in bits 1–7
// and an occupied bit in bit 0; a zero key marks an empty slot.
type LineState struct {
	key     uint64
	Holders uint64 // bitmask of cores holding the line (64-core cap)
}

const (
	lsUsed       = 1
	lsOwnerShift = 1
	lsOwner      = 0x7f << lsOwnerShift // owner+1: 0 (none) up to 64
	lsLineShift  = 2
)

// Owner returns the core owning the line, or -1.
func (s *LineState) Owner() int { return int(s.key&lsOwner>>lsOwnerShift) - 1 }

// SetOwner records core c (or -1 for none) as the line's owner.
func (s *LineState) SetOwner(c int) {
	s.key = s.key&^lsOwner | uint64(c+1)<<lsOwnerShift
}

// line returns the address the slot tracks.
func (s *LineState) line() mem.Addr {
	return mem.Addr(s.key>>lsLineShift) &^ (mem.LineSize - 1)
}

// neutral reports an occupied slot with no holders and no owner.
func (s *LineState) neutral() bool {
	return s.key != 0 && s.Holders == 0 && s.key&lsOwner == 0
}

const dirMinSlots = 1 << 10

// fibMult is 2^64 / phi, the standard multiplicative-hashing constant: the
// high bits of line*fibMult are well mixed even for sequential lines.
const fibMult = 0x9E3779B97F4A7C15

// dirTables holds the tables of freed directories and the tables grow
// outgrew.
var dirTables slab.List[[]LineState]

// NewDirectory returns an empty directory of dirMinSlots slots.
func NewDirectory() Directory {
	return Directory{slots: slab.Take(&dirTables, dirMinSlots), shift: 64 - 10}
}

// Free hands the table to the free list, for the next directory to take.
// The directory must not be used again: a later lookup panics.
func (d *Directory) Free() {
	slab.Give(&dirTables, d.slots)
	*d = Directory{}
}

// home returns the slot line's probe run starts at.
func (d *Directory) home(line mem.Addr) uint64 { return (uint64(line) * fibMult) >> d.shift }

// slot returns the index of line's slot and true, or the index of the
// empty slot that ends line's probe run and false.
func (d *Directory) slot(line mem.Addr) (uint64, bool) {
	want := uint64(line)<<lsLineShift | lsUsed
	mask := uint64(len(d.slots) - 1)
	for i := d.home(line); ; i = (i + 1) & mask {
		switch k := d.slots[i].key; {
		case k&^lsOwner == want:
			return i, true
		case k == 0:
			return i, false
		}
	}
}

// Find returns line's slot, or nil when the line has none: it has no
// holders and no owner, so there is nothing to clear.
func (d *Directory) Find(line mem.Addr) *LineState {
	if i, ok := d.slot(line); ok {
		return &d.slots[i]
	}
	return nil
}

// GetOrInsert returns the state for line, creating a neutral entry (no
// holders, no owner) when it has none. An insert into a table at its load
// limit purges the neutral slots first, and grows the table if the live
// slots still fill more than 5/8 of it.
func (d *Directory) GetOrInsert(line mem.Addr) *LineState {
	if line >= mem.MaxAddr {
		panic(fmt.Sprintf("cache: line %v is beyond mem.MaxAddr", line))
	}
	i, ok := d.slot(line)
	if !ok {
		if d.used >= len(d.slots)*3/4 {
			d.purge()
			if d.used > len(d.slots)*5/8 {
				d.grow()
			}
			i, _ = d.slot(line)
		}
		d.used++
		d.slots[i].key = uint64(line)<<lsLineShift | lsUsed
	}
	return &d.slots[i]
}

// Release clears core c's holder bit and, if c owns it, the ownership of
// line. A line without a slot has neither.
func (d *Directory) Release(c int, line mem.Addr) {
	if s := d.Find(line); s != nil {
		s.Holders &^= 1 << uint(c)
		if s.Owner() == c {
			s.SetOwner(-1)
		}
	}
}

// Live reports how many lines hold state (a holder or an owner) and how
// many slots the table has. It scans every slot: for diagnostics and
// tests, not hot paths.
func (d *Directory) Live() (lines, slots int) {
	for i := range d.slots {
		if s := &d.slots[i]; s.key != 0 && !s.neutral() {
			lines++
		}
	}
	return lines, len(d.slots)
}

// purge deletes every neutral slot in place. Each deletion shifts the rest
// of its probe run back (backward-shift deletion), so every remaining line
// stays reachable from its home slot and no tombstones are left.
func (d *Directory) purge() {
	for i := 0; i < len(d.slots); {
		if d.slots[i].neutral() {
			d.remove(uint64(i)) // may move a later slot into i: look again
			continue
		}
		i++
	}
}

// remove empties slot i, then walks the probe run after it and moves back
// into the hole each slot whose home does not lie cyclically in (hole, j].
func (d *Directory) remove(i uint64) {
	mask := uint64(len(d.slots) - 1)
	for j := (i + 1) & mask; d.slots[j].key != 0; j = (j + 1) & mask {
		if (j-d.home(d.slots[j].line()))&mask < (j-i)&mask {
			continue // its home is after the hole: it must stay
		}
		d.slots[i] = d.slots[j]
		i = j
	}
	d.slots[i] = LineState{}
	d.used--
}

// grow doubles the table and hands the outgrown one to the free list at
// once: no slot pointer survives an insert that grows.
func (d *Directory) grow() {
	old := d.slots
	d.slots = slab.Take(&dirTables, len(old)*2)
	d.shift--
	mask := uint64(len(d.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := d.home(s.line())
		for d.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
	slab.Give(&dirTables, old)
}
