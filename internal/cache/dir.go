package cache

import (
	"fmt"

	"asfstack/internal/mem"
)

// dirTable is the flat coherence directory: an open-addressed hash table
// of lineState slots, each holding its line's address and coherence state
// inline. It replaces the previous map[mem.Addr]*lineState, which paid a
// heap allocation per tracked line and Go map hashing on every access.
//
// Invariants the rest of the hierarchy relies on:
//
//   - Only live lines are sure to keep a slot. A neutral slot (no holders,
//     no owner) answers every reader exactly like an absent line, so an
//     insert that finds the table at its 3/4 load limit first purges the
//     neutral slots, and doubles the table only if the live ones still
//     fill more than 5/8 of it. A slot holding only an owner is live and
//     survives.
//   - Pointers returned by getOrInsert and find stay valid until the next
//     getOrInsert that inserts, which may purge or grow. The hierarchy
//     inserts only in the first state() call of an Access; every other
//     site uses find, which never inserts, so no held pointer can move.
//   - Slot order never reaches simulated timing: lookups follow a line's
//     own probe run, and a purge only deletes neutral slots.
//   - Every line is below mem.MaxAddr, which the packed key needs.
type dirTable struct {
	slots []lineState
	used  int
	shift uint // 64 - log2(len(slots)); used by the multiplicative hash
}

// lineState is one directory slot, packed into 16 bytes. key is the line
// address shifted left by two (its low 8 bits are then zero, and lines
// below mem.MaxAddr lose no high bits), with the owner plus one in bits 1–7
// and an occupied bit in bit 0; a zero key marks an empty slot.
type lineState struct {
	key     uint64
	holders uint64 // bitmask of cores with a private copy (64-core cap)
}

const (
	lsUsed       = 1
	lsOwnerShift = 1
	lsOwner      = 0x7f << lsOwnerShift // owner+1: 0 (none) up to 64
	lsLineShift  = 2
)

// owner returns the core holding the line modified, or -1.
func (s *lineState) owner() int { return int(s.key&lsOwner>>lsOwnerShift) - 1 }

// setOwner records core c (or -1 for none) as the line's modified holder.
func (s *lineState) setOwner(c int) {
	s.key = s.key&^lsOwner | uint64(c+1)<<lsOwnerShift
}

// line returns the address the slot tracks.
func (s *lineState) line() mem.Addr {
	return mem.Addr(s.key>>lsLineShift) &^ (mem.LineSize - 1)
}

// neutral reports an occupied slot with no holders and no owner.
func (s *lineState) neutral() bool {
	return s.key != 0 && s.holders == 0 && s.key&lsOwner == 0
}

const dirMinSlots = 1 << 10

// fibMult is 2^64 / phi, the standard multiplicative-hashing constant: the
// high bits of line*fibMult are well mixed even for sequential lines.
const fibMult = 0x9E3779B97F4A7C15

func (d *dirTable) init() {
	d.slots = make([]lineState, dirMinSlots)
	d.used = 0
	d.shift = 64 - 10
}

// home returns the slot line's probe run starts at.
func (d *dirTable) home(line mem.Addr) uint64 { return (uint64(line) * fibMult) >> d.shift }

// slot returns the index of line's slot and true, or the index of the
// empty slot that ends line's probe run and false.
func (d *dirTable) slot(line mem.Addr) (uint64, bool) {
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

// find returns line's slot, or nil when the line has none: it holds no
// copy anywhere and no owner, so there is nothing to clear.
func (d *dirTable) find(line mem.Addr) *lineState {
	if i, ok := d.slot(line); ok {
		return &d.slots[i]
	}
	return nil
}

// getOrInsert returns the state for line, creating a neutral entry (no
// holders, no owner) when it has none. An insert into a table at its load
// limit purges the neutral slots first, and grows the table if the live
// slots still fill more than 5/8 of it.
func (d *dirTable) getOrInsert(line mem.Addr) *lineState {
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

// purge deletes every neutral slot in place. Each deletion shifts the rest
// of its probe run back (backward-shift deletion), so every remaining line
// stays reachable from its home slot and no tombstones are left.
func (d *dirTable) purge() {
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
func (d *dirTable) remove(i uint64) {
	mask := uint64(len(d.slots) - 1)
	for j := (i + 1) & mask; d.slots[j].key != 0; j = (j + 1) & mask {
		if (j-d.home(d.slots[j].line()))&mask < (j-i)&mask {
			continue // its home is after the hole: it must stay
		}
		d.slots[i] = d.slots[j]
		i = j
	}
	d.slots[i] = lineState{}
	d.used--
}

func (d *dirTable) grow() {
	old := d.slots
	d.slots = make([]lineState, len(old)*2)
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
}
