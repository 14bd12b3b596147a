package stamp

import (
	"fmt"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/txlib"
)

// labyrinth routes paths through a shared 3-D grid with Lee's algorithm.
// Each route is ONE transaction that breadth-first-expands through the
// grid (transactional reads of every visited cell) and claims the found
// path (transactional writes) — the huge read and write sets the paper
// calls out: labyrinth overflows every ASF capacity, runs in
// serial-irrevocable mode almost always, does not scale, and still beats
// the STM because serial execution pays no barrier costs (Fig. 4).
type labyrinth struct {
	x, y, z int
	routes  int

	grid  wordArray // x*y*z cells; 0 = free, else 1+route id
	workQ *txlib.Queue
	// done[i]: 0 = unrouted, 1 = routed, 2 = unroutable (Go-visible
	// only through simulated memory)
	done    wordArray
	lengths wordArray // cells claimed per route

	src, dst []int // cell indices per route
}

func newLabyrinth(scale float64) *labyrinth {
	g := &labyrinth{x: 48, y: 48, z: 3}
	g.routes = int(24 * scale)
	if g.routes < 2 {
		g.routes = 2
	}
	return g
}

func (l *labyrinth) Name() string { return "labyrinth" }

func (l *labyrinth) cells() int { return l.x * l.y * l.z }

func (l *labyrinth) Setup(s *asfstack.Stack, tx tm.Tx, threads int) {
	rng := tx.CPU().Rand()
	l.grid = allocArray(tx, l.cells())
	l.workQ = txlib.NewQueue(tx)
	l.done = allocArray(tx, l.routes)
	l.lengths = allocArray(tx, l.routes)

	used := map[int]bool{}
	pick := func() int {
		for {
			c := rng.Intn(l.cells())
			if !used[c] {
				used[c] = true
				return c
			}
		}
	}
	for i := 0; i < l.routes; i++ {
		l.src = append(l.src, pick())
		l.dst = append(l.dst, pick())
		l.workQ.Push(tx, mem.Word(i))
	}
}

// neighbors appends the orthogonal neighbours of cell c to buf.
func (l *labyrinth) neighbors(cell int, buf []int) []int {
	cx := cell % l.x
	cy := (cell / l.x) % l.y
	cz := cell / (l.x * l.y)
	if cx > 0 {
		buf = append(buf, cell-1)
	}
	if cx < l.x-1 {
		buf = append(buf, cell+1)
	}
	if cy > 0 {
		buf = append(buf, cell-l.x)
	}
	if cy < l.y-1 {
		buf = append(buf, cell+l.x)
	}
	if cz > 0 {
		buf = append(buf, cell-l.x*l.y)
	}
	if cz < l.z-1 {
		buf = append(buf, cell+l.x*l.y)
	}
	return buf
}

// routeScratch is one thread's private Lee-expansion state: the distance
// map and the two wavefront buffers of the breadth-first search. route
// resets it on every attempt, so one scratch serves all of a thread's
// routes and their retries.
type routeScratch struct {
	dist           []int32
	frontier, next []int
}

func (l *labyrinth) Thread(s *asfstack.Stack, c *sim.CPU, tid, threads int) {
	sc := &routeScratch{dist: make([]int32, l.cells())}
	// Atomic bodies, built once over the slots the loop fills (see
	// App.Thread).
	var (
		route  mem.Word
		ok     bool
		routed bool
		status mem.Word
	)
	pop := func(tx tm.Tx) { route, ok = l.workQ.Pop(tx) }
	expand := func(tx tm.Tx) { routed = l.route(tx, int(route), sc) }
	finish := func(tx tm.Tx) { tx.Store(l.done.addr(int(route)), status) }
	for {
		route, ok = 0, false
		s.Atomic(c, pop)
		if !ok {
			return
		}
		routed = false
		s.Atomic(c, expand)
		status = 2
		if routed {
			status = 1
		}
		s.Atomic(c, finish)
	}
}

// route performs the transactional Lee expansion and path claim for route
// r, in the thread-private scratch sc.
func (l *labyrinth) route(tx tm.Tx, r int, sc *routeScratch) bool {
	c := tx.CPU()
	dist := sc.dist
	for i := range dist {
		dist[i] = -1
	}
	c.Exec(len(dist) / 4) // memset

	src, dst := l.src[r], l.dst[r]
	// Endpoints must still be free (earlier routes may have claimed them).
	if tx.Load(l.grid.addr(src)) != 0 || tx.Load(l.grid.addr(dst)) != 0 {
		return false
	}

	frontier, next := append(sc.frontier[:0], src), sc.next
	dist[src] = 0
	var nbuf [6]int
	found := false
	for len(frontier) > 0 && !found {
		next = next[:0]
		for _, cell := range frontier {
			for _, nb := range l.neighbors(cell, nbuf[:0]) {
				c.Exec(5)
				if dist[nb] >= 0 {
					continue
				}
				if nb == dst {
					dist[nb] = dist[cell] + 1
					found = true
					break
				}
				// Transactional read: the whole explored region
				// joins the read set.
				if tx.Load(l.grid.addr(nb)) != 0 {
					dist[nb] = -2 // occupied
					continue
				}
				dist[nb] = dist[cell] + 1
				next = append(next, nb)
			}
			if found {
				break
			}
		}
		frontier, next = next, frontier
	}
	// Keep whatever the buffers grew to for the next route.
	sc.frontier, sc.next = frontier, next
	if !found {
		return false
	}

	// Backtrack from dst, claiming cells.
	id := mem.Word(r + 1)
	cur := dst
	length := mem.Word(0)
	for {
		tx.Store(l.grid.addr(cur), id)
		length++
		if cur == src {
			break
		}
		stepped := false
		for _, nb := range l.neighbors(cur, nbuf[:0]) {
			c.Exec(4)
			if dist[nb] == dist[cur]-1 && dist[nb] >= 0 {
				cur = nb
				stepped = true
				break
			}
		}
		if !stepped {
			panic("labyrinth: backtrack lost the wavefront")
		}
	}
	tx.Store(l.lengths.addr(r), length)
	return true
}

func (l *labyrinth) Validate(tx tm.Tx) error {
	// Count claimed cells per route id and compare with recorded lengths;
	// every route must be marked routed or unroutable.
	counts := make(map[int]int)
	for i := 0; i < l.cells(); i++ {
		v := int(tx.Load(l.grid.addr(i)))
		if v != 0 {
			counts[v-1]++
		}
	}
	routedCount := 0
	for r := 0; r < l.routes; r++ {
		st := tx.Load(l.done.addr(r))
		switch st {
		case 1:
			routedCount++
			want := int(tx.Load(l.lengths.addr(r)))
			if counts[r] != want {
				return fmt.Errorf("route %d claims %d cells, recorded %d", r, counts[r], want)
			}
			if tx.Load(l.grid.addr(l.src[r])) != mem.Word(r+1) ||
				tx.Load(l.grid.addr(l.dst[r])) != mem.Word(r+1) {
				return fmt.Errorf("route %d endpoints not claimed by it", r)
			}
		case 2:
			if counts[r] != 0 {
				return fmt.Errorf("failed route %d owns %d cells", r, counts[r])
			}
		default:
			return fmt.Errorf("route %d never finished (status %d)", r, st)
		}
	}
	if routedCount == 0 {
		return fmt.Errorf("no route succeeded")
	}
	return nil
}
