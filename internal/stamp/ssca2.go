package stamp

import (
	"fmt"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// ssca2 is kernel 1 of the SSCA#2 graph benchmark: constructing the
// adjacency structure of a directed multigraph from a randomly ordered
// edge list. Each edge append is one tiny transaction on the target node's
// degree counter and adjacency slot — small transactions, low conflict
// probability, which is why ssca2 has the lowest abort rate of the suite
// (Fig. 6) and scales almost linearly (Fig. 4).
type ssca2 struct {
	nodes, edges int
	capacity     int

	edgeArr wordArray // packed (u<<32 | v), read-only input
	degree  wordArray // per-node degree (one line each: padded)
	adj     wordArray // nodes × capacity adjacency slots

	overflow []int // Go-side per-thread dropped-edge counts
}

func newSSCA2(scale float64) *ssca2 {
	n := int(2048 * scale)
	return &ssca2{nodes: n, edges: 3 * n, capacity: 32}
}

func (g *ssca2) Name() string { return "ssca2" }

func (g *ssca2) Setup(s *asfstack.Stack, tx tm.Tx, threads int) {
	rng := tx.CPU().Rand()
	g.edgeArr = allocArray(tx, g.edges)
	for i := 0; i < g.edges; i++ {
		u := rng.Intn(g.nodes)
		v := rng.Intn(g.nodes)
		tx.Store(g.edgeArr.addr(i), mem.Word(uint64(u)<<32|uint64(v)))
	}
	// Padded degree counters: one line per node, like the padded entry
	// points the paper adds to the main data structures.
	g.degree = allocArray(tx, g.nodes*mem.WordsPerLine)
	g.adj = allocArray(tx, g.nodes*g.capacity)
	g.overflow = make([]int, threads)
}

func (g *ssca2) degreeAddr(u int) mem.Addr { return g.degree.addr(u * mem.WordsPerLine) }

func (g *ssca2) Thread(s *asfstack.Stack, c *sim.CPU, tid, threads int) {
	// The one transaction, built once over the slots the loop fills (see
	// App.Thread): append edge u->v.
	var (
		u, v    int
		dropped bool // set by the last (committed) execution of the body
	)
	add := func(tx tm.Tx) {
		d := tx.Load(g.degreeAddr(u))
		if int(d) >= g.capacity {
			dropped = true
			return
		}
		dropped = false
		tx.Store(g.adj.addr(u*g.capacity+int(d)), mem.Word(v))
		tx.Store(g.degreeAddr(u), d+1)
	}
	lo, hi := span(g.edges, tid, threads)
	for i := lo; i < hi; i++ {
		e := uint64(c.Load(g.edgeArr.addr(i))) // read-only input: plain
		u, v = int(e>>32), int(e&0xFFFFFFFF)
		dropped = false
		s.Atomic(c, add)
		if dropped {
			g.overflow[tid]++
		}
	}
}

func (g *ssca2) Validate(tx tm.Tx) error {
	var total int
	for u := 0; u < g.nodes; u++ {
		total += int(tx.Load(g.degreeAddr(u)))
	}
	dropped := 0
	for _, d := range g.overflow {
		dropped += d
	}
	if total+dropped != g.edges {
		return fmt.Errorf("adjacency entries %d + dropped %d != edges %d",
			total, dropped, g.edges)
	}
	return nil
}
