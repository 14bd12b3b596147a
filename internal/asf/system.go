package asf

import (
	"fmt"

	"asfstack/internal/cache"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
)

// System is the machine-wide ASF facility: one speculative Unit per core
// plus the conflict-detection state that, on real hardware, piggybacks on
// the cache-coherence protocol. It installs itself into the simulator's
// access and eviction hooks; from then on every memory access from every
// core is checked against all protected lines (strong isolation).
type System struct {
	m       *sim.Machine
	variant Variant
	units   []Unit

	// prot is the protection directory, the model of what coherence
	// probes would discover, kept in the coherence directory's table: a
	// line's holders are the cores monitoring it (read or write set) and
	// its owner is the core holding it speculatively modified. A line no
	// region protects is a neutral slot, which the table's purge drops.
	// Only trackRead and trackWrite insert; everything else uses Find or
	// Release, so no slot pointer is held across an insert.
	prot cache.Directory

	// Socket topology (from the machine config): an abort probe that has
	// to cross a socket boundary to reach its victim pays xsockLat extra
	// cycles, like the cache's directory hops. coresPer is 0 on
	// single-socket machines, disabling the charge entirely.
	coresPer int
	xsockLat uint64

	met sysMetrics
}

// sysMetrics holds the facility's registered metric handles. All handles
// are zero-value inert until SetMetrics installs a registry, so the hot
// paths record unconditionally.
type sysMetrics struct {
	starts  metrics.Counter
	commits metrics.Counter
	aborts  [sim.NumAbortReasons]metrics.Counter

	// Read/write-set sizes (in lines) observed at commit and at abort —
	// the paper's capacity-attribution evidence (§5, Figs. 6/7).
	readCommit  metrics.Histogram
	writeCommit metrics.Histogram
	readAbort   metrics.Histogram
	writeAbort  metrics.Histogram

	// llbHigh is the high-water mark of LLB entries in use.
	llbHigh metrics.Gauge

	// xsockProbes counts conflict-abort probes that crossed a socket
	// boundary (multi-socket topologies only).
	xsockProbes metrics.Counter
}

// SetMetrics registers the facility's instruments with reg. Must be called
// before the first speculative region (stack construction does this).
func (s *System) SetMetrics(reg *metrics.Registry) {
	s.met.starts = reg.Counter("asf/starts")
	s.met.commits = reg.Counter("asf/commits")
	for r := 1; r < sim.NumAbortReasons; r++ { // skip AbortNone
		s.met.aborts[r] = reg.Counter("asf/aborts/" + sim.AbortReason(r).String())
	}
	sizes := metrics.PowersOfTwo(10) // 1..512 lines, +overflow
	s.met.readCommit = reg.Histogram("asf/readset_lines/commit", sizes)
	s.met.writeCommit = reg.Histogram("asf/writeset_lines/commit", sizes)
	s.met.readAbort = reg.Histogram("asf/readset_lines/abort", sizes)
	s.met.writeAbort = reg.Histogram("asf/writeset_lines/abort", sizes)
	s.met.llbHigh = reg.Gauge("asf/llb_highwater")
	s.met.xsockProbes = reg.Counter("asf/xsock_probes")
}

// Install builds the ASF system for machine m with the given implementation
// variant and hooks it into the simulator. Each core's Unit is registered
// as its speculative unit.
func Install(m *sim.Machine, v Variant) *System {
	s := &System{
		m:       m,
		variant: v,
		prot:    cache.NewDirectory(),
	}
	if tp := m.Config().Topology; tp.Sockets > 1 {
		s.coresPer = tp.CoresPerSocket
		s.xsockLat = m.Config().Cache.XSockLat
	}
	// Every core's Unit, LLB and initial write list come from three
	// slabs. The three-index subslices cap each core's segment, so a
	// write list that outgrows its segment moves instead of running
	// into the next core's.
	n, nl := m.Config().Cores, v.LLBEntries
	s.units = make([]Unit, n)
	llbs := make([]mem.Addr, n*nl)
	writes := make([]lineBackup, n*initialWrites)
	for i := range s.units {
		s.units[i] = Unit{
			sys:      s,
			c:        m.CPU(i),
			llb:      llbs[i*nl : i*nl : (i+1)*nl],
			writes:   writes[i*initialWrites : i*initialWrites : (i+1)*initialWrites],
			readSet:  make(map[mem.Addr]struct{}),
			lastBy:   sim.NoCore,
			lastAddr: sim.NoAddr,
		}
		m.CPU(i).SetSpecUnit(&s.units[i])
	}
	m.SetAccessHook(s.onAccess)
	m.Hier.SetEvictHook(s.onEvict)
	return s
}

// Variant returns the installed implementation configuration.
func (s *System) Variant() Variant { return s.variant }

// Unit returns core i's speculative unit.
func (s *System) Unit(i int) *Unit { return &s.units[i] }

// chargeProbe adds the cross-socket latency of one conflict-abort probe
// when requester and victim sit on different sockets.
func (s *System) chargeProbe(c *sim.CPU, self, victim int) {
	if s.coresPer == 0 || self/s.coresPer == victim/s.coresPer {
		return
	}
	c.Cycles(s.xsockLat)
	s.met.xsockProbes.Inc(self)
}

// onAccess is the simulator access hook: it implements conflict detection
// (requester-wins), selective annotation, the colocation rules, and
// read/write-set tracking. It runs on the accessing core's goroutine with
// the global turn held.
func (s *System) onAccess(c *sim.CPU, addr mem.Addr, f sim.Flags) {
	line := addr.Line()
	self := c.ID()
	u := &s.units[self]
	write := f&sim.FWrite != 0
	locked := f&sim.FLocked != 0

	if f&sim.FPre != 0 {
		// Probe phase, before the cache model moves any line: resolve
		// conflicts (requester wins) so victims roll back — and their
		// speculative marks flash-clear — before this access's fills
		// and invalidations can displace the marks (which would
		// misreport contention as capacity).
		if p := s.prot.Find(line); p != nil {
			if w := p.Owner(); w >= 0 && w != self {
				s.chargeProbe(c, self, w)
				s.units[w].asyncAbortFrom(sim.AbortContention, self, line)
			}
			if write {
				rd := p.Holders &^ (1 << uint(self))
				for o := 0; rd != 0; o, rd = o+1, rd>>1 {
					if rd&1 != 0 {
						s.chargeProbe(c, self, o)
						s.units[o].asyncAbortFrom(sim.AbortContention, self, line)
					}
				}
			}
		}
		return
	}

	if !u.active {
		if locked {
			if c.AbortPending() {
				// The region was rolled back mid-operation (e.g.
				// its own refill displaced a speculative-read
				// line); the abort is delivered at the next
				// operation and this access's effects are moot.
				return
			}
			// LOCK MOV / WATCH outside a speculative region is a
			// disallowed-instruction fault in the specification.
			panic(fmt.Sprintf("asf: core %d: speculative access at %v outside a region", self, addr))
		}
		return
	}

	// The region is active on this core (tracking phase).
	switch {
	case locked && write:
		u.trackWrite(line)
	case locked:
		u.trackRead(line)
	case write:
		// Plain store inside a region. If this region speculatively
		// modified the line, that is the colocation error ASF raises an
		// exception for. If the line is only in the read set, ASF
		// hoists the store into the transactional set.
		if p := s.prot.Find(line); p != nil {
			if p.Owner() == self {
				c.RaiseAbort(sim.AbortDisallowed, 0)
			}
			if p.Holders&(1<<uint(self)) != 0 {
				u.trackWrite(line) // hoisting
			}
		}
	default:
		// Plain load: never tracked; reads current (possibly
		// speculative) data. Nothing to do.
	}
}

// onEvict is the cache eviction hook. Losing an L1 line that carries the
// speculative-read mark means the hybrid implementation can no longer
// monitor it: the owning region must abort (a capacity condition — this is
// the displacement pathology §5 analyses).
func (s *System) onEvict(core int, line mem.Addr, specRead bool) {
	if !specRead || !s.variant.L1ReadSet {
		return
	}
	u := &s.units[core]
	if u.active {
		u.asyncAbortFrom(sim.AbortCapacity, sim.NoCore, line)
	}
}

// ProtectedLines returns how many lines are currently protected machine-
// wide (diagnostics and tests). Neutral directory slots, which stay until
// the next purge, do not count.
func (s *System) ProtectedLines() int {
	n, _ := s.prot.Live()
	return n
}

// Monitors reports how many cores other than c currently protect a's line
// in an active speculative region — the set of regions a conflicting plain
// write from c would abort. The probe takes the global simulation turn (at
// zero cycle cost): on hardware this information is what the write's
// coherence probes would discover, so reading it separately is a modelling
// convenience, not extra traffic.
func (s *System) Monitors(c *sim.CPU, a mem.Addr) int {
	n := 0
	c.SpecOp(0, func() {
		if p := s.prot.Find(a.Line()); p != nil {
			rd := p.Holders &^ (1 << uint(c.ID()))
			for ; rd != 0; rd >>= 1 {
				n += int(rd & 1)
			}
		}
	})
	return n
}
