package txlib

import (
	"asfstack/internal/mem"
	"asfstack/internal/tm"
)

// RBTree is a red-black tree implementing a sorted integer map (and set) —
// the IntegerSet red-black-tree workload and the dictionaries inside
// vacation. Node layout (one cache line, so tree height ≈ ASF capacity
// demand, the Fig. 7 relationship):
//
//	word 0: key
//	word 1: value
//	word 2: left
//	word 3: right
//	word 4: parent
//	word 5: color (0 black, 1 red)
//
// The implementation is CLRS with an explicit nil sentinel node, with every
// field access going through the TM barriers.
type RBTree struct {
	hdr mem.Addr // word 0: root pointer
	nil mem.Addr // sentinel (black)
}

const (
	rbKey = iota
	rbVal
	rbLeft
	rbRight
	rbParent
	rbColor
)

const (
	black mem.Word = 0
	red   mem.Word = 1
)

// NewRBTree builds an empty tree.
func NewRBTree(tx tm.Tx) *RBTree {
	t := &RBTree{hdr: tx.AllocLines(1), nil: tx.AllocLines(1)}
	tx.Store(field(t.nil, rbColor), black)
	tx.Store(t.hdr, mem.Word(t.nil)) // root = nil
	return t
}

func (t *RBTree) root(tx tm.Tx) mem.Addr       { return mem.Addr(tx.Load(t.hdr)) }
func (t *RBTree) setRoot(tx tm.Tx, n mem.Addr) { tx.Store(t.hdr, mem.Word(n)) }

func get(tx tm.Tx, n mem.Addr, f int) mem.Addr    { return mem.Addr(tx.Load(field(n, f))) }
func set(tx tm.Tx, n mem.Addr, f int, v mem.Addr) { tx.Store(field(n, f), mem.Word(v)) }

// lookup returns the node with key k, or the sentinel.
func (t *RBTree) lookup(tx tm.Tx, k uint64) mem.Addr {
	c := tx.CPU()
	x := t.root(tx)
	for x != t.nil {
		c.Exec(6)
		xk := uint64(tx.Load(field(x, rbKey)))
		if k == xk {
			return x
		}
		if k < xk {
			x = get(tx, x, rbLeft)
		} else {
			x = get(tx, x, rbRight)
		}
	}
	return t.nil
}

// Contains reports whether k is in the tree.
func (t *RBTree) Contains(tx tm.Tx, k uint64) bool {
	return t.lookup(tx, k) != t.nil
}

// Get returns the value stored at k.
func (t *RBTree) Get(tx tm.Tx, k uint64) (mem.Word, bool) {
	n := t.lookup(tx, k)
	if n == t.nil {
		return 0, false
	}
	return tx.Load(field(n, rbVal)), true
}

// Insert adds (k, v), returning false if k was already present.
func (t *RBTree) Insert(tx tm.Tx, k uint64, v mem.Word) bool {
	c := tx.CPU()
	y := t.nil
	x := t.root(tx)
	for x != t.nil {
		c.Exec(6)
		y = x
		xk := uint64(tx.Load(field(x, rbKey)))
		if k == xk {
			return false
		}
		if k < xk {
			x = get(tx, x, rbLeft)
		} else {
			x = get(tx, x, rbRight)
		}
	}
	z := tx.AllocLines(1)
	tx.Store(field(z, rbKey), mem.Word(k))
	tx.Store(field(z, rbVal), v)
	set(tx, z, rbLeft, t.nil)
	set(tx, z, rbRight, t.nil)
	set(tx, z, rbParent, y)
	tx.Store(field(z, rbColor), red)
	if y == t.nil {
		t.setRoot(tx, z)
	} else if k < uint64(tx.Load(field(y, rbKey))) {
		set(tx, y, rbLeft, z)
	} else {
		set(tx, y, rbRight, z)
	}
	t.insertFixup(tx, z)
	return true
}

func (t *RBTree) rotateLeft(tx tm.Tx, x mem.Addr) {
	tx.CPU().Exec(12)
	y := get(tx, x, rbRight)
	yl := get(tx, y, rbLeft)
	set(tx, x, rbRight, yl)
	if yl != t.nil {
		set(tx, yl, rbParent, x)
	}
	xp := get(tx, x, rbParent)
	set(tx, y, rbParent, xp)
	if xp == t.nil {
		t.setRoot(tx, y)
	} else if x == get(tx, xp, rbLeft) {
		set(tx, xp, rbLeft, y)
	} else {
		set(tx, xp, rbRight, y)
	}
	set(tx, y, rbLeft, x)
	set(tx, x, rbParent, y)
}

func (t *RBTree) rotateRight(tx tm.Tx, x mem.Addr) {
	tx.CPU().Exec(12)
	y := get(tx, x, rbLeft)
	yr := get(tx, y, rbRight)
	set(tx, x, rbLeft, yr)
	if yr != t.nil {
		set(tx, yr, rbParent, x)
	}
	xp := get(tx, x, rbParent)
	set(tx, y, rbParent, xp)
	if xp == t.nil {
		t.setRoot(tx, y)
	} else if x == get(tx, xp, rbRight) {
		set(tx, xp, rbRight, y)
	} else {
		set(tx, xp, rbLeft, y)
	}
	set(tx, y, rbRight, x)
	set(tx, x, rbParent, y)
}

func (t *RBTree) color(tx tm.Tx, n mem.Addr) mem.Word       { return tx.Load(field(n, rbColor)) }
func (t *RBTree) setColor(tx tm.Tx, n mem.Addr, c mem.Word) { tx.Store(field(n, rbColor), c) }

func (t *RBTree) insertFixup(tx tm.Tx, z mem.Addr) {
	for {
		zp := get(tx, z, rbParent)
		if zp == t.nil || t.color(tx, zp) == black {
			break
		}
		zpp := get(tx, zp, rbParent)
		if zp == get(tx, zpp, rbLeft) {
			y := get(tx, zpp, rbRight)
			if t.color(tx, y) == red {
				t.setColor(tx, zp, black)
				t.setColor(tx, y, black)
				t.setColor(tx, zpp, red)
				z = zpp
			} else {
				if z == get(tx, zp, rbRight) {
					z = zp
					t.rotateLeft(tx, z)
					zp = get(tx, z, rbParent)
					zpp = get(tx, zp, rbParent)
				}
				t.setColor(tx, zp, black)
				t.setColor(tx, zpp, red)
				t.rotateRight(tx, zpp)
			}
		} else {
			y := get(tx, zpp, rbLeft)
			if t.color(tx, y) == red {
				t.setColor(tx, zp, black)
				t.setColor(tx, y, black)
				t.setColor(tx, zpp, red)
				z = zpp
			} else {
				if z == get(tx, zp, rbLeft) {
					z = zp
					t.rotateRight(tx, z)
					zp = get(tx, z, rbParent)
					zpp = get(tx, zp, rbParent)
				}
				t.setColor(tx, zp, black)
				t.setColor(tx, zpp, red)
				t.rotateLeft(tx, zpp)
			}
		}
	}
	t.setColor(tx, t.root(tx), black)
}

// transplant replaces subtree u with subtree v. The sentinel is never
// written (writing it would make every removal conflict with every other
// through one hot line); callers carry v's parent explicitly instead.
func (t *RBTree) transplant(tx tm.Tx, u, v mem.Addr) {
	up := get(tx, u, rbParent)
	if up == t.nil {
		t.setRoot(tx, v)
	} else if u == get(tx, up, rbLeft) {
		set(tx, up, rbLeft, v)
	} else {
		set(tx, up, rbRight, v)
	}
	if v != t.nil {
		set(tx, v, rbParent, up)
	}
}

func (t *RBTree) minimum(tx tm.Tx, x mem.Addr) mem.Addr {
	for {
		l := get(tx, x, rbLeft)
		if l == t.nil {
			return x
		}
		x = l
	}
}

// Remove deletes k, returning false if absent.
func (t *RBTree) Remove(tx tm.Tx, k uint64) bool {
	z := t.lookup(tx, k)
	if z == t.nil {
		return false
	}
	y := z
	yColor := t.color(tx, y)
	var x, xp mem.Addr // x may be the sentinel; xp is its effective parent
	if get(tx, z, rbLeft) == t.nil {
		x = get(tx, z, rbRight)
		xp = get(tx, z, rbParent)
		t.transplant(tx, z, x)
	} else if get(tx, z, rbRight) == t.nil {
		x = get(tx, z, rbLeft)
		xp = get(tx, z, rbParent)
		t.transplant(tx, z, x)
	} else {
		y = t.minimum(tx, get(tx, z, rbRight))
		yColor = t.color(tx, y)
		x = get(tx, y, rbRight)
		if get(tx, y, rbParent) == z {
			xp = y
			if x != t.nil {
				set(tx, x, rbParent, y)
			}
		} else {
			xp = get(tx, y, rbParent)
			t.transplant(tx, y, x)
			zr := get(tx, z, rbRight)
			set(tx, y, rbRight, zr)
			set(tx, zr, rbParent, y)
		}
		t.transplant(tx, z, y)
		zl := get(tx, z, rbLeft)
		set(tx, y, rbLeft, zl)
		set(tx, zl, rbParent, y)
		t.setColor(tx, y, t.color(tx, z))
	}
	if yColor == black {
		t.deleteFixup(tx, x, xp)
	}
	tx.Store(field(z, rbKey), ^mem.Word(0)) // poison
	tx.Free(z)
	return true
}

func (t *RBTree) deleteFixup(tx tm.Tx, x, xp mem.Addr) {
	for x != t.root(tx) && (x == t.nil || t.color(tx, x) == black) {
		tx.CPU().Exec(8)
		if x != t.nil {
			xp = get(tx, x, rbParent)
		}
		if x == get(tx, xp, rbLeft) {
			w := get(tx, xp, rbRight)
			if t.color(tx, w) == red {
				t.setColor(tx, w, black)
				t.setColor(tx, xp, red)
				t.rotateLeft(tx, xp)
				w = get(tx, xp, rbRight)
			}
			if t.color(tx, get(tx, w, rbLeft)) == black &&
				t.color(tx, get(tx, w, rbRight)) == black {
				t.setColor(tx, w, red)
				x, xp = xp, t.nil
			} else {
				if t.color(tx, get(tx, w, rbRight)) == black {
					t.setColor(tx, get(tx, w, rbLeft), black)
					t.setColor(tx, w, red)
					t.rotateRight(tx, w)
					w = get(tx, xp, rbRight)
				}
				t.setColor(tx, w, t.color(tx, xp))
				t.setColor(tx, xp, black)
				t.setColor(tx, get(tx, w, rbRight), black)
				t.rotateLeft(tx, xp)
				x = t.root(tx)
			}
		} else {
			w := get(tx, xp, rbLeft)
			if t.color(tx, w) == red {
				t.setColor(tx, w, black)
				t.setColor(tx, xp, red)
				t.rotateRight(tx, xp)
				w = get(tx, xp, rbLeft)
			}
			if t.color(tx, get(tx, w, rbRight)) == black &&
				t.color(tx, get(tx, w, rbLeft)) == black {
				t.setColor(tx, w, red)
				x, xp = xp, t.nil
			} else {
				if t.color(tx, get(tx, w, rbLeft)) == black {
					t.setColor(tx, get(tx, w, rbRight), black)
					t.setColor(tx, w, red)
					t.rotateLeft(tx, w)
					w = get(tx, xp, rbLeft)
				}
				t.setColor(tx, w, t.color(tx, xp))
				t.setColor(tx, xp, black)
				t.setColor(tx, get(tx, w, rbLeft), black)
				t.rotateRight(tx, xp)
				x = t.root(tx)
			}
		}
	}
	if x != t.nil {
		t.setColor(tx, x, black)
	}
}

// Size returns the element count by walking the tree. Deliberately not a
// maintained counter: a counter word next to the root pointer would make
// every update conflict with every lookup through one hot line.
func (t *RBTree) Size(tx tm.Tx) int { return t.sizeOf(tx, t.root(tx)) }

func (t *RBTree) sizeOf(tx tm.Tx, n mem.Addr) int {
	if n == t.nil {
		return 0
	}
	return 1 + t.sizeOf(tx, get(tx, n, rbLeft)) + t.sizeOf(tx, get(tx, n, rbRight))
}

// CheckInvariants verifies the red-black properties and key order,
// returning the black height (tests only).
func (t *RBTree) CheckInvariants(tx tm.Tx) (blackHeight int, ok bool) {
	root := t.root(tx)
	if root == t.nil {
		return 1, true
	}
	if t.color(tx, root) != black {
		return 0, false
	}
	return t.check(tx, root, 0, ^uint64(0))
}

func (t *RBTree) check(tx tm.Tx, n mem.Addr, lo, hi uint64) (int, bool) {
	if n == t.nil {
		return 1, true
	}
	k := uint64(tx.Load(field(n, rbKey)))
	if k < lo || k > hi {
		return 0, false
	}
	c := t.color(tx, n)
	l, r := get(tx, n, rbLeft), get(tx, n, rbRight)
	if c == red {
		if (l != t.nil && t.color(tx, l) == red) || (r != t.nil && t.color(tx, r) == red) {
			return 0, false
		}
	}
	var lk, hk uint64
	if k > 0 {
		lk = k - 1
	}
	hk = k + 1
	lb, lok := t.check(tx, l, lo, lk)
	rb, rok := t.check(tx, r, hk, hi)
	if !lok || !rok || lb != rb {
		return 0, false
	}
	if c == black {
		lb++
	}
	return lb, true
}
