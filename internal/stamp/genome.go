package stamp

import (
	"fmt"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/txlib"
)

// genome is gene sequencing: deduplicate overlapping DNA segments, then
// link them by maximal suffix/prefix overlap. The transactional profile
// matches STAMP's: phase 1 hammers one shared hash set with small insert
// transactions; phase 2 links segments through a shared prefix table with
// small read-mostly transactions. Both scale well — genome is one of the
// applications where ASF shines in Fig. 4.
//
// Segments are L nucleotides (2 bits each) packed into one word. The gene
// itself is immutable input: it is read with plain accesses (selective
// annotation), keeping it out of the hardware's speculative capacity.
type genome struct {
	geneLen  int
	segLen   int
	segments int

	gene []byte // Go-side input generator state

	segArr wordArray // packed segment values (read-only input)
	unique *txlib.HashSet
	// uniqArr is partitioned per thread: thread t appends its unique
	// segments to [t*perThread, ...) with a private counter, so the
	// dedup phase has no shared append point (as in STAMP).
	uniqArr   wordArray
	uniqCnt   wordArray // per-thread counters, one line each
	perThread int
	prefix    *txlib.HashMap
	links     wordArray // links[i] = 1+index of successor of unique[i]
	linked    wordArray // linked[i] = 1 if unique[i] already has a predecessor

	contigs  wordArray // phase 3 output: contig lengths
	nContigs mem.Addr

	bar *Barrier

	oracleUnique int // Go-side expected dedup count
}

func newGenome(scale float64) *genome {
	return &genome{
		geneLen:  int(4096 * scale),
		segLen:   16,
		segments: int(3072 * scale),
	}
}

func (g *genome) Name() string { return "genome" }

func (g *genome) Setup(s *asfstack.Stack, tx tm.Tx, threads int) {
	// Derive the input from the run's seed like every other application
	// (core 0's stream is a pure function of Config.Seed), rather than a
	// hardcoded source that made every "seeded" genome run share one gene.
	rng := tx.CPU().Rand()
	g.gene = make([]byte, g.geneLen)
	for i := range g.gene {
		g.gene[i] = byte(rng.Intn(4))
	}
	g.segArr = allocArray(tx, g.segments)
	seen := map[uint64]bool{}
	for i := 0; i < g.segments; i++ {
		start := rng.Intn(g.geneLen - g.segLen)
		var v uint64
		for j := 0; j < g.segLen; j++ {
			v |= uint64(g.gene[start+j]) << uint(2*j)
		}
		tx.Store(g.segArr.addr(i), mem.Word(v))
		seen[v] = true
	}
	g.oracleUnique = len(seen)

	g.unique = txlib.NewHashSet(tx, 12)
	g.uniqArr = allocArray(tx, g.segments)
	g.uniqCnt = allocArray(tx, threads*mem.WordsPerLine)
	g.perThread = (g.segments + threads - 1) / threads
	g.prefix = txlib.NewHashMap(tx, 12)
	g.links = allocArray(tx, g.segments)
	g.linked = allocArray(tx, g.segments)
	g.contigs = allocArray(tx, g.segments)
	g.nContigs = tx.AllocLines(1)
	g.bar = NewBarrier(tx, threads)
}

// prefixKey tags a prefix of length o nucleotides with its level so
// different overlap levels do not collide in the shared table.
func prefixKey(seg uint64, o int) uint64 {
	return uint64(o)<<40 ^ (seg & (1<<uint(2*o) - 1))
}

func suffixBits(seg uint64, segLen, o int) uint64 {
	return seg >> uint(2*(segLen-o))
}

func (g *genome) Thread(s *asfstack.Stack, c *sim.CPU, tid, threads int) {
	// Atomic bodies, built once over the slots the loops fill (see
	// App.Thread): seg is the segment, i its index in the array being
	// walked, o the overlap level.
	var (
		seg      uint64
		i, o     int
		inserted bool
	)
	insert := func(tx tm.Tx) { inserted = g.unique.Insert(tx, seg) }
	publish := func(tx tm.Tx) {
		if tx.Load(g.linked.addr(i)) == 0 {
			g.prefix.PutIfAbsent(tx, prefixKey(seg, o), mem.Word(i+1))
		}
	}
	match := func(tx tm.Tx) {
		if tx.Load(g.links.addr(i)) != 0 {
			return
		}
		key := uint64(o)<<40 ^ suffixBits(seg, g.segLen, o)
		v, ok := g.prefix.Get(tx, key)
		if !ok {
			return
		}
		j := int(v) - 1
		if j == i {
			return
		}
		if tx.Load(g.linked.addr(j)) == 0 {
			tx.Store(g.links.addr(i), mem.Word(j+1))
			tx.Store(g.linked.addr(j), 1)
		}
	}
	// Levels use distinct key tags, so simply leave old entries; nothing
	// to clear. Charge the pass cost.
	clearPass := func(tx tm.Tx) { tx.CPU().Exec(50) }

	// Phase 1: deduplicate segments into the shared set. Winners are
	// recorded in the thread's own partition of the unique array with
	// plain accesses — thread-private until the barrier, so the only
	// transactional state is the hash set itself.
	lo, hi := span(g.segments, tid, threads)
	myBase := tid * g.perThread
	myCount := 0
	for i = lo; i < hi; i++ {
		seg = uint64(c.Load(g.segArr.addr(i))) // read-only input: plain
		inserted = false
		s.Atomic(c, insert)
		if inserted {
			c.Store(g.uniqArr.addr(myBase+myCount), mem.Word(seg))
			myCount++
		}
	}
	c.Store(g.uniqCnt.addr(tid*mem.WordsPerLine), mem.Word(myCount))
	g.bar.Wait(c)
	// Phase 2: three overlap levels, longest first, as in STAMP's
	// decreasing-match-length loop. Each thread processes its own
	// partition of the unique array.
	for _, o = range [...]int{g.segLen - 1, g.segLen - 2, g.segLen - 4} {
		// 2a: publish every unlinked segment's prefix.
		lo, hi := myBase, myBase+myCount
		for i = lo; i < hi; i++ {
			seg = uint64(c.Load(g.uniqArr.addr(i)))
			s.Atomic(c, publish)
		}
		g.bar.Wait(c)
		// 2b: match suffixes against published prefixes.
		for i = lo; i < hi; i++ {
			seg = uint64(c.Load(g.uniqArr.addr(i)))
			s.Atomic(c, match)
		}
		g.bar.Wait(c)
		// 2c: clear the prefix table between levels (thread 0; STAMP
		// rebuilds its table per pass).
		if tid == 0 {
			s.Atomic(c, clearPass)
		}
		g.bar.Wait(c)
	}

	// Phase 3: sequence reconstruction — walk the successor chains from
	// every chain head and record contig lengths. Sequential in STAMP
	// (thread 0), plain accesses: the links are frozen after phase 2.
	if tid == 0 {
		g.reconstruct(c, threads)
	}
	g.bar.Wait(c)
}

// reconstruct builds the contig length table from the link graph: every
// segment that no one links to is a chain head; follow links[] until the
// chain ends. contigs[i] holds the i-th contig's length (in segments).
func (g *genome) reconstruct(c *sim.CPU, threads int) {
	nContigs := 0
	for t := 0; t < threads; t++ {
		cnt := int(c.Load(g.uniqCnt.addr(t * mem.WordsPerLine)))
		base := t * g.perThread
		for i := base; i < base+cnt; i++ {
			c.Exec(4)
			if c.Load(g.linked.addr(i)) != 0 {
				continue // has a predecessor: not a chain head
			}
			length := mem.Word(1)
			for j := i; ; {
				l := int(c.Load(g.links.addr(j)))
				if l == 0 {
					break
				}
				j = l - 1
				length++
				c.Exec(3)
			}
			c.Store(g.contigs.addr(nContigs), length)
			nContigs++
		}
	}
	c.Store(g.nContigs, mem.Word(nContigs))
}

func (g *genome) Validate(tx tm.Tx) error {
	n := 0
	for t := 0; t < g.uniqCnt.n/mem.WordsPerLine; t++ {
		n += int(tx.Load(g.uniqCnt.addr(t * mem.WordsPerLine)))
	}
	if n != g.oracleUnique {
		return fmt.Errorf("dedup count = %d, want %d", n, g.oracleUnique)
	}
	if got := g.unique.Size(tx); got != g.oracleUnique {
		return fmt.Errorf("unique set size = %d, want %d", got, g.oracleUnique)
	}
	// Phase 3 consistency: contig lengths partition the unique segments
	// (every segment in exactly one chain; chains are acyclic because
	// each segment has at most one predecessor and one successor, and
	// every walk from a head terminated).
	nc := int(tx.Load(g.nContigs))
	if nc == 0 {
		return fmt.Errorf("no contigs reconstructed")
	}
	var covered uint64
	for i := 0; i < nc; i++ {
		covered += uint64(tx.Load(g.contigs.addr(i)))
	}
	if covered != uint64(n) {
		return fmt.Errorf("contigs cover %d segments, want %d", covered, n)
	}
	// No segment may have two predecessors, and every link target must be
	// marked linked.
	preds := make(map[int]int)
	for i := 0; i < g.segments; i++ {
		l := int(tx.Load(g.links.addr(i)))
		if l == 0 {
			continue
		}
		j := l - 1
		preds[j]++
		if preds[j] > 1 {
			return fmt.Errorf("segment %d has %d predecessors", j, preds[j])
		}
		if tx.Load(g.linked.addr(j)) == 0 {
			return fmt.Errorf("segment %d linked but not marked", j)
		}
	}
	return nil
}
