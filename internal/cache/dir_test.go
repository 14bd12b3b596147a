package cache

import (
	"math/rand"
	"testing"

	"asfstack/internal/mem"
)

// TestDirTableGrowthPreservesState: inserting past the load limit purges
// the neutral slots and grows the table; a live slot's coherence state must
// be found intact afterwards, and a neutral one may go. dirMinSlots*2
// insertions force two growths. Owners cycle through -1 (none) to 63,
// every value the packed key holds, and the tracked lines include the last
// one below mem.MaxAddr. Line 0 gets no owner and no holders, so it is
// neutral.
func TestDirTableGrowthPreservesState(t *testing.T) {
	d := NewDirectory()
	n := dirMinSlots * 2 // guarantees two growth steps
	line := func(i int) mem.Addr {
		if i == 1 {
			return mem.MaxAddr - mem.LineSize
		}
		return mem.Addr(i * mem.LineSize)
	}
	owner := func(i int) int { return i%65 - 1 }
	for i := 0; i < n; i++ {
		s := d.GetOrInsert(line(i))
		if s.Owner() != -1 || s.Holders != 0 || s.line() != line(i) {
			t.Fatalf("line %v: fresh state = {line:%v holders:%d owner:%d}, want neutral",
				line(i), s.line(), s.Holders, s.Owner())
		}
		s.SetOwner(owner(i))
		s.Holders = uint64(i)
	}
	if len(d.slots) != dirMinSlots*4 {
		t.Fatalf("%d slots after %d inserts, want %d", len(d.slots), n, dirMinSlots*4)
	}
	for i := 0; i < n; i++ {
		s := d.Find(line(i))
		if i == 0 {
			if s != nil && !s.neutral() {
				t.Fatalf("neutral line 0 found as {holders:%d owner:%d}", s.Holders, s.Owner())
			}
			continue
		}
		if s == nil {
			t.Fatalf("live line %v lost", line(i))
		}
		if s.Owner() != owner(i) || s.Holders != uint64(i) || s.line() != line(i) {
			t.Fatalf("line %v: state after growth = {line:%v holders:%d owner:%d}, want {holders:%d owner:%d}",
				line(i), s.line(), s.Holders, s.Owner(), i, owner(i))
		}
		s.SetOwner(-1)
		if s.Owner() != -1 || s.line() != line(i) {
			t.Fatalf("line %v: clearing owner %d left {line:%v owner:%d}", line(i), owner(i), s.line(), s.Owner())
		}
	}
	if occ := occupied(&d); d.used != occ || d.used < n-1 {
		t.Fatalf("used = %d with %d occupied slots, want them equal and at least %d", d.used, occ, n-1)
	}
}

// occupied counts d's non-empty slots.
func occupied(d *Directory) int {
	n := 0
	for i := range d.slots {
		if d.slots[i].key != 0 {
			n++
		}
	}
	return n
}

// TestDirTableLineZero: line 0 is a real address (the key encoding must not
// confuse it with an empty slot).
func TestDirTableLineZero(t *testing.T) {
	d := NewDirectory()
	s := d.GetOrInsert(0)
	s.SetOwner(3)
	if got := d.GetOrInsert(0); got.Owner() != 3 {
		t.Fatalf("line 0 state lost: owner %d", got.Owner())
	}
	if d.used != 1 {
		t.Fatalf("used = %d, want 1", d.used)
	}
}

// TestDirTableRejectsMaxAddr: the packed key has no room for a line at or
// beyond mem.MaxAddr, so tracking one panics rather than aliasing a low
// line.
func TestDirTableRejectsMaxAddr(t *testing.T) {
	d := NewDirectory()
	defer func() {
		if recover() == nil {
			t.Fatal("a line at mem.MaxAddr was tracked")
		}
	}()
	d.GetOrInsert(mem.MaxAddr)
}

// TestCoherenceSurvivesDirGrowth drives growth and purges through the
// public API: ownership recorded early must still trigger a cache-to-cache
// transfer after core 1 has streamed enough lines through its private
// caches to grow the directory and then purge it several times.
func TestCoherenceSurvivesDirGrowth(t *testing.T) {
	h := New(2, Barcelona())
	line := mem.Addr(0x4000)
	h.Access(0, line, true) // core 0 owns the line dirty
	purges := 0
	for i := 0; i < 1<<16; i++ {
		used := h.dir.used
		h.Access(1, mem.Addr(0x800000+i*mem.LineSize), false)
		if h.dir.used < used {
			purges++
		}
	}
	t.Logf("%d purges, %d slots", purges, len(h.dir.slots))
	if purges < 3 {
		t.Fatalf("core 1's stream purged the directory %d times, want at least 3", purges)
	}
	r := h.Access(1, line, false)
	if r.Level != Remote {
		t.Fatalf("dirty line served from %v after %d purges, want remote", r.Level, purges)
	}
}

// TestDirectoryFollowsPrivateLines: the directory holds the lines some
// core's private caches hold, not every line a run has touched. One
// Barcelona core keeps at most 9,216 lines in its L1 and L2, so streaming
// 2^18 distinct lines, a third of them written, must end with at most
// 32,768 slots (a table that kept every line would have 524,288).
func TestDirectoryFollowsPrivateLines(t *testing.T) {
	h := New(1, Barcelona())
	for i := 0; i < 1<<18; i++ {
		h.Access(0, mem.Addr(i*mem.LineSize), i%3 == 0)
	}
	n := len(h.dir.slots)
	t.Logf("%d slots, %d used", n, h.dir.used)
	if n > 1<<15 {
		t.Fatalf("%d directory slots after streaming 2^18 lines, want at most %d", n, 1<<15)
	}
}

// TestDirectoryHoldsL1Lines: random streams of Access, Drop, FlushPrivate,
// speculative-read marks and flash clears on a 2-core machine with tiny
// caches, over enough lines to purge the directory many times. After every
// step each L1-resident line must have a directory slot with its core's
// holder bit: the L1-hit path skips the directory on that promise, and the
// purge keeps such a slot because it is live.
func TestDirectoryHoldsL1Lines(t *testing.T) {
	cfg := Barcelona()
	cfg.L1Size, cfg.L1Assoc = 4*mem.LineSize, 2 // 2 sets of 2 ways
	cfg.L2Size, cfg.L2Assoc = 16*mem.LineSize, 4
	cfg.L3Size, cfg.L3Assoc = 64*mem.LineSize, 4
	for seed := int64(1); seed <= 4; seed++ {
		h := New(2, cfg)
		h.SetEvictHook(func(int, mem.Addr, bool) {})
		rng := rand.New(rand.NewSource(seed))
		purges := 0
		for step := 0; step < 20000; step++ {
			c, line := rng.Intn(2), mem.Addr(rng.Intn(4096)*mem.LineSize)
			used := h.dir.used
			switch r := rng.Intn(100); {
			case r < 70:
				h.Access(c, line, r < 25)
			case r < 85:
				h.Access(c, line, false)
				h.SetSpecRead(c, line, true)
			case r < 95:
				h.Drop(c, line)
			case r < 98:
				h.FlashClearSpecRead(c)
			default:
				h.FlushPrivate(c)
			}
			if h.dir.used < used {
				purges++
			}
			for core := range h.cores {
				h.cores[core].l1.forEach(func(e *entry) {
					if ls := h.dir.Find(e.line()); ls == nil || ls.Holders&(1<<core) == 0 {
						t.Fatalf("seed %d step %d: core %d holds %v in L1 without its directory holder bit (slot %v)",
							seed, step, core, e.line(), ls)
					}
				})
			}
		}
		t.Logf("seed %d: %d purges, %d slots", seed, purges, len(h.dir.slots))
		if purges < 10 {
			t.Fatalf("seed %d: %d purges, want at least 10", seed, purges)
		}
	}
}

// dirKeys is FuzzDirTable's key space: enough lines to fill the table past
// several purges and doublings. Key 0 is line 0 and the last key is the
// last line below mem.MaxAddr.
const dirKeys = 4 * dirMinSlots

func dirKeyLine(k int) mem.Addr {
	if k == dirKeys-1 {
		return mem.MaxAddr - mem.LineSize
	}
	return mem.Addr(k * mem.LineSize)
}

// dirModel is a line's coherence state in FuzzDirTable's map model; a
// neutral line has no model entry.
type dirModel struct {
	holders uint64
	owner   int
}

// FuzzDirTable drives a Directory directly against a map model. Each 4-byte
// operation is an opcode, a 2-byte key and an argument:
//
//	0 run of a+1 GetOrInsert calls from key k (neutral inserts)
//	1 GetOrInsert(k), set holder bit a%64
//	2 GetOrInsert(k), set owner a%65-1
//	3 Release(a%64, k) (a line leaves core a%64)
//	4 Find(k), clear holder bit a%64 only (a lost speculative-read mark)
//	5 run of a+1: GetOrInsert(k+i), set holder bit (k+i)%64
//	6 run of a+1: GetOrInsert(k+i), set owner (k+i)%64 (owner-only slots)
//	7 run of a+1: Find(k+i), clear every holder bit and the owner
//
// After each operation every non-neutral line's state must equal the
// model's, Find on every other line must return nil or a neutral slot, and
// used must equal the number of occupied slots. The committed seeds
// (testdata/fuzz/FuzzDirTable) force the cases a purge must get right:
// owner-only-slots makes 200 slots that hold only an owner, then inserts
// 800 neutral lines, purging past them; wrapping-shifts inserts runs of
// live lines, releases half and inserts neutral ones, six times, so the
// table purges and doubles twice, shifting probe runs that wrap past its
// end.
func FuzzDirTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		d := NewDirectory()
		model := map[int]dirModel{}
		set := func(k int, st dirModel) {
			if st.holders == 0 && st.owner < 0 {
				delete(model, k)
			} else {
				model[k] = st
			}
		}
		get := func(k int) dirModel {
			if st, ok := model[k]; ok {
				return st
			}
			return dirModel{owner: -1}
		}
		for n := 0; n+4 <= len(prog); n += 4 {
			code, k, a := prog[n]%8, (int(prog[n+1])<<8|int(prog[n+2]))%dirKeys, prog[n+3]
			run := 1
			if code == 0 || code >= 5 {
				run = int(a) + 1
			}
			for i := 0; i < run; i++ {
				key := (k + i) % dirKeys
				line := dirKeyLine(key)
				st := get(key)
				switch code {
				case 0:
					d.GetOrInsert(line)
				case 1, 5:
					bit := uint64(1) << (a % 64)
					if code == 5 {
						bit = 1 << (key % 64)
					}
					d.GetOrInsert(line).Holders |= bit
					st.holders |= bit
				case 2, 6:
					o := int(a%65) - 1
					if code == 6 {
						o = key % 64
					}
					d.GetOrInsert(line).SetOwner(o)
					st.owner = o
				case 3:
					c := int(a % 64)
					d.Release(c, line)
					st.holders &^= 1 << c
					if st.owner == c {
						st.owner = -1
					}
				case 4:
					c := int(a % 64)
					if s := d.Find(line); s != nil {
						s.Holders &^= 1 << c
					}
					st.holders &^= 1 << c
				case 7:
					if s := d.Find(line); s != nil {
						s.Holders = 0
						s.SetOwner(-1)
					}
					st = dirModel{owner: -1}
				}
				set(key, st)
			}
			for key := 0; key < dirKeys; key++ {
				s := d.Find(dirKeyLine(key))
				st, live := model[key]
				switch {
				case live && s == nil:
					t.Fatalf("op %d: live line %v (holders %#x, owner %d) lost", n/4, dirKeyLine(key), st.holders, st.owner)
				case live && (s.Holders != st.holders || s.Owner() != st.owner || s.line() != dirKeyLine(key)):
					t.Fatalf("op %d: line %v = {line:%v holders:%#x owner:%d}, want {holders:%#x owner:%d}",
						n/4, dirKeyLine(key), s.line(), s.Holders, s.Owner(), st.holders, st.owner)
				case !live && s != nil && !s.neutral():
					t.Fatalf("op %d: neutral line %v found as {holders:%#x owner:%d}", n/4, dirKeyLine(key), s.Holders, s.Owner())
				}
			}
			if occ := occupied(&d); d.used != occ {
				t.Fatalf("op %d: used = %d, %d slots occupied", n/4, d.used, occ)
			}
		}
	})
}
