package cache

import (
	"testing"
	"unsafe"

	"asfstack/internal/mem"
)

// TestPackedEntrySizes pins the 16-byte cache and TLB entries: the arrays
// are most of what a machine allocates at construction.
func TestPackedEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Errorf("entry is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(tlbEntry{}); n != 16 {
		t.Errorf("tlbEntry is %d bytes, want 16", n)
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
			a := newArray(64<<10, 2)
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
