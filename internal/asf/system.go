package asf

import (
	"fmt"

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
	units   []*Unit

	// prot maps a line address to its protection state — the model of
	// what coherence probes would discover. A quiescent entry (no readers,
	// no writer) answers every probe exactly like an absent one, so
	// protFor purges the quiescent entries once the map has doubled since
	// the last purge, and hands them out again. An entry stays put while
	// any region protects its line, which is the only time the units hold
	// its pointer (LLB entries and read-set slots), so they skip the map
	// at region end.
	prot map[mem.Addr]*protState
	// protKeep is len(prot) after the last purge.
	protKeep int
	// protSpare holds purged entries, handed out before new ones are
	// carved.
	protSpare []*protState
	// protFree is the unused tail of the chunk protFor carves new entries
	// from. A chunk is never moved or freed.
	protFree []protState

	// pcache is a direct-mapped line→protState cache in front of prot,
	// the same idiom as mem's page cache. A purge empties it, since it
	// may name the entries the purge recycles; between purges no entry
	// leaves prot, so cached pointers cannot dangle, and a collision
	// only costs a map lookup.
	pcache [pcacheSlots]pcacheEnt

	// Socket topology (from the machine config): an abort probe that has
	// to cross a socket boundary to reach its victim pays xsockLat extra
	// cycles, like the cache's directory hops. coresPer is 0 on
	// single-socket machines, disabling the charge entirely.
	coresPer int
	xsockLat uint64

	met sysMetrics
}

const pcacheSlots = 2048 // power of two

// protChunk is how many directory entries protFor allocates at a time.
const protChunk = 256

type pcacheEnt struct {
	line mem.Addr
	p    *protState // nil marks an empty slot
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

type protState struct {
	readers uint64 // cores monitoring the line (read or write set; 64-core cap)
	writer  int8   // core holding it speculatively modified, or -1
}

// quiescent reports an entry no region protects: every probe reads it like
// an absent one.
func (p *protState) quiescent() bool { return p.readers == 0 && p.writer < 0 }

// Install builds the ASF system for machine m with the given implementation
// variant and hooks it into the simulator. Each core's Unit is registered
// as its speculative unit.
func Install(m *sim.Machine, v Variant) *System {
	s := &System{
		m:       m,
		variant: v,
		prot:    make(map[mem.Addr]*protState),
	}
	if tp := m.Config().Topology; tp.Sockets > 1 {
		s.coresPer = tp.CoresPerSocket
		s.xsockLat = m.Config().Cache.XSockLat
	}
	for i := 0; i < m.Config().Cores; i++ {
		u := newUnit(s, m.CPU(i))
		s.units = append(s.units, u)
		m.CPU(i).SetSpecUnit(u)
	}
	m.SetAccessHook(s.onAccess)
	m.Hier.SetEvictHook(s.onEvict)
	return s
}

// Variant returns the installed implementation configuration.
func (s *System) Variant() Variant { return s.variant }

// Unit returns core i's speculative unit.
func (s *System) Unit(i int) *Unit { return s.units[i] }

// protFor returns line's directory entry, materialising it when the line
// has none. Before it inserts into a map that has doubled since the last
// purge (and holds at least protChunk entries), it purges.
func (s *System) protFor(line mem.Addr) *protState {
	e := &s.pcache[int(line>>mem.LineShift)&(pcacheSlots-1)]
	if e.p != nil && e.line == line {
		return e.p
	}
	p, ok := s.prot[line]
	if !ok {
		if len(s.prot) >= max(2*s.protKeep, protChunk) {
			s.purge()
		}
		if n := len(s.protSpare); n > 0 {
			p, s.protSpare = s.protSpare[n-1], s.protSpare[:n-1]
		} else {
			if len(s.protFree) == 0 {
				s.protFree = make([]protState, protChunk)
			}
			p, s.protFree = &s.protFree[0], s.protFree[1:]
		}
		p.writer = -1
		s.prot[line] = p
	}
	e.line, e.p = line, p
	return p
}

// purge deletes every quiescent entry from prot and keeps it in protSpare
// for reuse, and empties the pcache, whose pointers may name those
// entries. protSpare is sized once, to hold what it has and what the
// purge adds.
func (s *System) purge() {
	dead := 0
	for _, p := range s.prot {
		if p.quiescent() {
			dead++
		}
	}
	if n := len(s.protSpare) + dead; cap(s.protSpare) < n {
		s.protSpare = append(make([]*protState, 0, n), s.protSpare...)
	}
	for line, p := range s.prot {
		if p.quiescent() {
			delete(s.prot, line)
			s.protSpare = append(s.protSpare, p)
		}
	}
	s.protKeep = len(s.prot)
	s.pcache = [pcacheSlots]pcacheEnt{}
}

// protLookup is protFor without materialisation: nil means the line has
// no entry, which every caller treats like a quiescent one.
func (s *System) protLookup(line mem.Addr) *protState {
	e := &s.pcache[int(line>>mem.LineShift)&(pcacheSlots-1)]
	if e.p != nil && e.line == line {
		return e.p
	}
	p, ok := s.prot[line]
	if !ok {
		return nil
	}
	e.line, e.p = line, p
	return p
}

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
	u := s.units[self]
	write := f&sim.FWrite != 0
	locked := f&sim.FLocked != 0

	if f&sim.FPre != 0 {
		// Probe phase, before the cache model moves any line: resolve
		// conflicts (requester wins) so victims roll back — and their
		// speculative marks flash-clear — before this access's fills
		// and invalidations can displace the marks (which would
		// misreport contention as capacity).
		if p := s.protLookup(line); p != nil {
			if w := int(p.writer); w >= 0 && w != self {
				s.chargeProbe(c, self, w)
				s.units[w].asyncAbortFrom(sim.AbortContention, self, line)
			}
			if write {
				rd := p.readers &^ (1 << uint(self))
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
	p := s.protLookup(line)
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
		if p != nil && int(p.writer) == self {
			c.RaiseAbort(sim.AbortDisallowed, 0)
		}
		if p != nil && p.readers&(1<<uint(self)) != 0 {
			u.trackWrite(line) // hoisting
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
	u := s.units[core]
	if u.active {
		u.asyncAbortFrom(sim.AbortCapacity, sim.NoCore, line)
	}
}

// abortAll aborts every active region except the one on core except
// (pass -1 to abort all). Used by the serial-irrevocable fallback test
// helpers and by lock-elision style code.
func (s *System) abortAll(except int) {
	for i, u := range s.units {
		if i != except && u.active {
			u.asyncAbort(sim.AbortContention)
		}
	}
}

// ProtectedLines returns how many lines are currently protected machine-
// wide (diagnostics and tests). Quiescent directory entries, which stay
// until the next purge, do not count.
func (s *System) ProtectedLines() int {
	n := 0
	for _, p := range s.prot {
		if !p.quiescent() {
			n++
		}
	}
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
		if p := s.protLookup(a.Line()); p != nil {
			rd := p.readers &^ (1 << uint(c.ID()))
			for ; rd != 0; rd >>= 1 {
				n += int(rd & 1)
			}
		}
	})
	return n
}
