package stamp

import (
	"fmt"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// kmeans is K-means clustering. Each iteration, every thread assigns its
// share of points to the nearest center (plain reads of the read-only
// centers plus local floating-point work) and then updates the shared
// per-cluster accumulators in one small transaction — the only shared
// writes. Contention is set by the cluster count: the "low" configuration
// uses many clusters, "high" uses few, exactly the knob STAMP's low/high
// variants turn.
type kmeans struct {
	n, dims, k int
	iterations int
	high       bool

	points  wordArray // n × dims, fixed-point values (read-only)
	centers wordArray // k × dims, rebuilt between iterations
	// accumulators: one line-padded row per cluster: [count, sum_0..sum_d-1]
	acc    wordArray
	accRow int // words per row (padded)

	lastCounts []uint64 // Go-side copy of final iteration counts
	bar        *Barrier
}

func newKMeans(scale float64, high bool) *kmeans {
	k := 40
	if high {
		k = 8
	}
	return &kmeans{
		n:          int(1024 * scale),
		dims:       8,
		k:          k,
		iterations: 4,
		high:       high,
	}
}

func (m *kmeans) Name() string {
	if m.high {
		return "kmeans-high"
	}
	return "kmeans-low"
}

func (m *kmeans) Setup(s *asfstack.Stack, tx tm.Tx, threads int) {
	rng := tx.CPU().Rand()
	m.points = allocArray(tx, m.n*m.dims)
	for i := 0; i < m.n*m.dims; i++ {
		tx.Store(m.points.addr(i), mem.Word(rng.Intn(1024)))
	}
	m.centers = allocArray(tx, m.k*m.dims)
	for i := 0; i < m.k*m.dims; i++ {
		tx.Store(m.centers.addr(i), mem.Word(rng.Intn(1024)))
	}
	// One padded row per cluster so clusters conflict only with
	// themselves.
	wordsPerRow := m.dims + 1
	m.accRow = (wordsPerRow + mem.WordsPerLine - 1) / mem.WordsPerLine * mem.WordsPerLine
	m.acc = allocArray(tx, m.k*m.accRow)
	m.bar = NewBarrier(tx, threads)
}

func (m *kmeans) accAddr(cluster, word int) mem.Addr {
	return m.acc.addr(cluster*m.accRow + word)
}

func (m *kmeans) Thread(s *asfstack.Stack, c *sim.CPU, tid, threads int) {
	// The one transaction, built once over the slots the loop fills (see
	// App.Thread): fold point p into cluster best.
	var p, best int
	fold := func(tx tm.Tx) {
		tx.Store(m.accAddr(best, 0), tx.Load(m.accAddr(best, 0))+1)
		for j := 0; j < m.dims; j++ {
			a := m.accAddr(best, 1+j)
			pv := tx.CPU().Load(m.points.addr(p*m.dims + j))
			tx.Store(a, tx.Load(a)+pv)
		}
	}
	lo, hi := span(m.n, tid, threads)
	for iter := 0; iter < m.iterations; iter++ {
		for p = lo; p < hi; p++ {
			// Nearest center: plain reads (centers are read-only within
			// an iteration) plus the distance arithmetic.
			best = 0
			bestD := ^uint64(0)
			for k := 0; k < m.k; k++ {
				var d uint64
				for j := 0; j < m.dims; j++ {
					pv := uint64(c.Load(m.points.addr(p*m.dims + j)))
					cv := uint64(c.Load(m.centers.addr(k*m.dims + j)))
					diff := int64(pv) - int64(cv)
					d += uint64(diff * diff)
				}
				c.Exec(3 * m.dims)
				if d < bestD {
					bestD, best = d, k
				}
			}
			s.Atomic(c, fold)
		}
		m.bar.Wait(c)
		if tid == 0 {
			m.recenter(c, iter)
		}
		m.bar.Wait(c)
	}
}

// recenter rebuilds centers from the accumulators and clears them (plain
// accesses; runs alone between iterations, like STAMP's master step).
func (m *kmeans) recenter(c *sim.CPU, iter int) {
	if iter == m.iterations-1 {
		m.lastCounts = make([]uint64, m.k)
	}
	for k := 0; k < m.k; k++ {
		cnt := uint64(c.Load(m.accAddr(k, 0)))
		if iter == m.iterations-1 {
			m.lastCounts[k] = cnt
		}
		for j := 0; j < m.dims; j++ {
			if cnt > 0 {
				sum := uint64(c.Load(m.accAddr(k, 1+j)))
				c.Store(m.centers.addr(k*m.dims+j), mem.Word(sum/cnt))
			}
			if iter != m.iterations-1 {
				c.Store(m.accAddr(k, 1+j), 0)
			}
		}
		if iter != m.iterations-1 {
			c.Store(m.accAddr(k, 0), 0)
		}
	}
}

func (m *kmeans) Validate(tx tm.Tx) error {
	var total uint64
	for _, cnt := range m.lastCounts {
		total += cnt
	}
	if total != uint64(m.n) {
		return fmt.Errorf("final assignment count = %d, want %d", total, m.n)
	}
	return nil
}
