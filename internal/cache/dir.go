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
//   - Entries are never deleted (the old map never deleted either; a line
//     whose holders mask drains to zero simply stays with neutral state).
//   - Pointers returned by getOrInsert stay valid until the next insertion
//     that grows the table. The hierarchy only inserts for lines that were
//     never accessed before — the initial state() call in Access — so all
//     later state() calls during the same access resolve to existing slots
//     and cannot move memory.
//   - The table is never iterated, so slot order cannot leak into simulated
//     timing (the determinism property PR 1 established for the arrays).
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

const dirMinSlots = 1 << 10

// fibMult is 2^64 / phi, the standard multiplicative-hashing constant: the
// high bits of line*fibMult are well mixed even for sequential lines.
const fibMult = 0x9E3779B97F4A7C15

func (d *dirTable) init() {
	d.slots = make([]lineState, dirMinSlots)
	d.used = 0
	d.shift = 64 - 10
}

// getOrInsert returns the state for line, creating a neutral entry (no
// holders, no owner) on first touch — the same semantics as the old map's
// state() helper.
func (d *dirTable) getOrInsert(line mem.Addr) *lineState {
	if line >= mem.MaxAddr {
		panic(fmt.Sprintf("cache: line %v is beyond mem.MaxAddr", line))
	}
	want := uint64(line)<<lsLineShift | lsUsed
	mask := uint64(len(d.slots) - 1)
	i := (uint64(line) * fibMult) >> d.shift
	for {
		s := &d.slots[i]
		if s.key&^lsOwner == want {
			return s
		}
		if s.key == 0 {
			if d.used >= len(d.slots)*3/4 {
				d.grow()
				return d.getOrInsert(line)
			}
			d.used++
			s.key = want
			return s
		}
		i = (i + 1) & mask
	}
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
		i := (uint64(s.line()) * fibMult) >> d.shift
		for d.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
}
