package asf

import (
	"asfstack/internal/cache"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// llbEntry is one locked-line-buffer slot: the address of a protected line
// and, when the line has been speculatively modified, the backup copy that
// is written back on abort.
type llbEntry struct {
	line    mem.Addr
	written bool
	backup  [mem.WordsPerLine]mem.Word
}

// Unit is one core's ASF facility: the locked-line buffer, the (variant-
// dependent) read-set tracking, and the speculative-region state machine.
//
// All Unit state is only ever touched while the global simulation turn is
// held — by the owning core inside its operations, or by another core
// aborting this one from inside its own operation (requester wins).
type Unit struct {
	sys *System
	c   *sim.CPU

	active bool
	depth  int

	llb        []llbEntry
	writeCount int                   // written lines (llb or cache)
	readSet    map[mem.Addr]struct{} // hybrid/cache variants: read lines marked in L1
	// cacheWrites holds backups for the pure cache-based variant, whose
	// write set lives in L1 speculative bits instead of an LLB.
	cacheWrites map[mem.Addr]*[mem.WordsPerLine]mem.Word

	lastAbortCost uint64 // hardware rollback cost, charged at recovery

	// Last-region observability, read by the TM runtime after Region
	// returns (flight recorder): the read/write-set sizes when the region
	// ended, and — for aborts — the causality edge (aborter core and
	// conflicting line, sim.NoCore/sim.NoAddr when unknown).
	lastRead  uint64
	lastWrite uint64
	lastBy    int
	lastAddr  mem.Addr
}

func newUnit(s *System, c *sim.CPU) *Unit {
	return &Unit{
		sys:         s,
		c:           c,
		llb:         make([]llbEntry, 0, s.variant.LLBEntries),
		readSet:     make(map[mem.Addr]struct{}),
		cacheWrites: make(map[mem.Addr]*[mem.WordsPerLine]mem.Word),
		lastBy:      sim.NoCore,
		lastAddr:    sim.NoAddr,
	}
}

// Active reports whether a speculative region is in flight (sim.SpecUnit).
func (u *Unit) Active() bool { return u.active }

// LastSetSizes returns the read/write-set sizes (in lines) of the region
// that most recently ended — committed or rolled back — on this unit.
func (u *Unit) LastSetSizes() (read, write uint64) { return u.lastRead, u.lastWrite }

// LastAbortEdge returns the causality edge of the most recent abort: the
// core whose access killed the region (sim.NoCore when self-inflicted or
// unknown) and the conflicting or displaced cache line (sim.NoAddr when
// unknown).
func (u *Unit) LastAbortEdge() (by int, addr mem.Addr) { return u.lastBy, u.lastAddr }

// --- region lifecycle ----------------------------------------------------

// Region executes body as an ASF speculative region: SPECULATE, body,
// COMMIT. It returns sim.AbortNone if the region committed, or the abort
// reason (plus the software code for explicit aborts). The caller — the TM
// runtime's begin function — decides whether to retry, back off, or fall
// back to software, exactly like the abort handler branching on rAX after
// SPECULATE.
//
// Nested calls compose by flattening (§2.2): an inner Region neither
// commits nor aborts independently; an abort anywhere rolls back the
// outermost region.
func (u *Unit) Region(body func()) (reason sim.AbortReason, code uint64) {
	nested := false
	u.c.SpecOp(SpeculateCost, func() {
		if u.active {
			if u.depth >= MaxNesting {
				u.c.RaiseAbort(sim.AbortNesting, 0)
			}
			u.depth++
			nested = true
			return
		}
		u.active = true
		u.depth = 1
		u.sys.met.starts.Inc(u.c.ID())
	})

	if nested {
		body()
		u.c.SpecOp(NestedCommitCost, func() { u.depth-- })
		return sim.AbortNone, 0
	}

	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			ae, ok := r.(*sim.AbortError)
			if !ok || ae.Core != u.c.ID() {
				panic(r) // not ours: a real bug, keep unwinding
			}
			reason, code = ae.Reason, ae.Code
			u.lastBy, u.lastAddr = ae.By, ae.Addr
			// Synchronous aborts (capacity, explicit, colocation,
			// page fault) arrive here with the region still active;
			// asynchronous ones (contention, interrupt) were already
			// rolled back by the aborter. rollback is idempotent.
			u.rollback(reason)
			u.c.Cycles(u.lastAbortCost)
		}()
		body()
		u.commit()
	}()
	return reason, code
}

// Abort executes the ABORT instruction with a software code, discarding the
// region's speculative state and transferring control to the abort handler
// (i.e., Region returns sim.AbortExplicit with the code).
func (u *Unit) Abort(code uint64) {
	u.c.SpecOp(0, func() {
		if !u.active {
			panic("asf: ABORT outside a speculative region")
		}
		u.c.RaiseAbort(sim.AbortExplicit, code)
	})
}

func (u *Unit) commit() {
	u.c.SpecOp(CommitCost, func() {
		if !u.active {
			panic("asf: COMMIT outside a speculative region")
		}
		u.releaseAll()
		if u.sys.variant.L1ReadSet {
			u.sys.m.Hier.FlashClearSpecRead(u.c.ID())
		}
		read, write := u.setSizes()
		u.lastRead, u.lastWrite = read, write
		u.sys.met.readCommit.Observe(u.c.ID(), read)
		u.sys.met.writeCommit.Observe(u.c.ID(), write)
		u.reset()
		u.sys.met.commits.Inc(u.c.ID())
	})
}

// rollback restores memory and releases protection. Idempotent: no-op if
// the region was already rolled back asynchronously.
func (u *Unit) rollback(reason sim.AbortReason) {
	if !u.active {
		return
	}
	u.doRollback(reason)
}

// asyncAbortFrom rolls the region back immediately and posts the abort for
// delivery at the core's next operation, with the causality edge: the
// aborting core and the conflicting (or displaced) line, delivered to the
// victim through its pending-abort state for the flight recorder. Runs on
// the *aborting* core's goroutine (or this core's own OS-event path) with
// the turn held.
func (u *Unit) asyncAbortFrom(reason sim.AbortReason, by int, line mem.Addr) {
	if !u.active {
		return
	}
	u.doRollback(reason)
	u.c.PostAbortFrom(reason, by, line)
}

// AsyncAbort implements sim.SpecUnit for OS events (interrupts, faults,
// system calls).
func (u *Unit) AsyncAbort(reason sim.AbortReason) {
	u.asyncAbortFrom(reason, sim.NoCore, sim.NoAddr)
}

func (u *Unit) doRollback(reason sim.AbortReason) {
	hier := u.sys.m.Hier
	memory := u.sys.m.Mem
	for i := range u.llb {
		e := &u.llb[i]
		if e.written {
			// Write the backup copy back before any probe is
			// answered; drop the (now stale) cached copy.
			memory.StoreLine(e.line, &e.backup)
			hier.Drop(u.c.ID(), e.line)
		}
	}
	for line, backup := range u.cacheWrites {
		memory.StoreLine(line, backup)
		hier.Drop(u.c.ID(), line)
	}
	u.releaseAll()
	if u.sys.variant.L1ReadSet {
		hier.FlashClearSpecRead(u.c.ID())
	}
	u.lastAbortCost = AbortBaseCost + AbortPerLine*uint64(u.writeCount)
	read, write := u.setSizes()
	u.lastRead, u.lastWrite = read, write
	u.sys.met.readAbort.Observe(u.c.ID(), read)
	u.sys.met.writeAbort.Observe(u.c.ID(), write)
	u.reset()
	u.sys.met.aborts[reason].Inc(u.c.ID())
}

// setSizes reports the region's current read- and write-set sizes in lines.
// In the pure cache-based variant the write set lives outside the LLB; in
// every LLB variant written lines are LLB entries.
func (u *Unit) setSizes() (read, write uint64) {
	write = uint64(u.writeCount)
	if u.sys.variant.CacheBased {
		return uint64(len(u.readSet)), write
	}
	return uint64(len(u.llb)-u.writeCount) + uint64(len(u.readSet)), write
}

func (u *Unit) reset() {
	u.llb = u.llb[:0]
	u.writeCount = 0
	clear(u.readSet)
	clear(u.cacheWrites)
	u.active = false
	u.depth = 0
}

// releaseAll drops this core's marks from every line the region protects.
// A released slot stays in the directory until a purge (see System.prot);
// a neutral slot is indistinguishable from an absent one to every probe.
func (u *Unit) releaseAll() {
	prot, id := &u.sys.prot, u.c.ID()
	for i := range u.llb {
		prot.Release(id, u.llb[i].line)
	}
	for line := range u.readSet {
		prot.Release(id, line)
	}
	for line := range u.cacheWrites {
		prot.Release(id, line)
	}
}

// --- protected accesses ---------------------------------------------------

// Load performs a LOCK MOV load: addr's line joins the read set.
func (u *Unit) Load(a mem.Addr) mem.Word { return u.c.LoadLocked(a) }

// Store performs a LOCK MOV store: addr's line joins the write set.
func (u *Unit) Store(a mem.Addr, v mem.Word) { u.c.StoreLocked(a, v) }

// WatchR starts monitoring addr's line for remote stores without reading
// data into the program.
func (u *Unit) WatchR(a mem.Addr) { u.c.Watch(a, false) }

// WatchW protects addr's line for writing (monitors loads and stores)
// without storing data.
func (u *Unit) WatchW(a mem.Addr) { u.c.Watch(a, true) }

// Release stops monitoring a read-only line (a strict hint: it cannot
// cancel a speculative store). This is the early-release mechanism the
// hand-over-hand list traversal in §5 exploits.
func (u *Unit) Release(a mem.Addr) {
	u.c.SpecOp(ReleaseCost, func() {
		if !u.active {
			return
		}
		line := a.Line()
		for i := range u.llb {
			e := &u.llb[i]
			if e.line == line {
				if e.written {
					return // cannot release a written line
				}
				u.llb[i] = u.llb[len(u.llb)-1]
				u.llb = u.llb[:len(u.llb)-1]
				u.sys.prot.Release(u.c.ID(), line)
				return
			}
		}
		if _, written := u.cacheWrites[line]; written {
			return // cannot release a written line
		}
		if _, ok := u.readSet[line]; ok {
			delete(u.readSet, line)
			u.sys.m.Hier.SetSpecRead(u.c.ID(), line, false)
			u.sys.prot.Release(u.c.ID(), line)
		}
	})
}

// --- tracking (called from the access hook, turn held) --------------------

// trackRead and trackWrite are the directory's only inserters, and
// neither inserts again before its last use of p, so p stays valid.
func (u *Unit) trackRead(line mem.Addr) {
	p := u.sys.prot.GetOrInsert(line)
	bit := uint64(1) << uint(u.c.ID())
	if p.Holders&bit != 0 || p.Owner() == u.c.ID() {
		return // already protected by this region
	}
	if u.sys.variant.ASF1 && u.writeCount > 0 {
		// ASF1 (§6): the protected set is frozen once the atomic phase
		// (first speculative store) has begun.
		u.c.RaiseAbort(sim.AbortDisallowed, 0)
	}
	if u.sys.variant.L1ReadSet {
		if !u.sys.m.Hier.SetSpecRead(u.c.ID(), line, true) {
			u.c.RaiseAbortAt(sim.AbortCapacity, 0, line)
		}
		u.readSet[line] = struct{}{}
	} else {
		if len(u.llb) == cap(u.llb) {
			u.c.RaiseAbortAt(sim.AbortCapacity, 0, line)
		}
		u.llb = append(u.llb, llbEntry{line: line})
		u.sys.met.llbHigh.High(u.c.ID(), uint64(len(u.llb)))
	}
	p.Holders |= bit
}

func (u *Unit) trackWrite(line mem.Addr) {
	p := u.sys.prot.GetOrInsert(line)
	bit := uint64(1) << uint(u.c.ID())
	if p.Owner() == u.c.ID() {
		return // already in the write set
	}
	if u.sys.variant.ASF1 && u.writeCount > 0 && p.Holders&bit == 0 {
		// ASF1: no new protected lines after the atomic phase starts.
		u.c.RaiseAbort(sim.AbortDisallowed, 0)
	}
	if u.sys.variant.CacheBased {
		u.trackWriteCache(line, p, bit)
		return
	}
	// Upgrade an existing read entry, or allocate a new one.
	var e *llbEntry
	for i := range u.llb {
		if u.llb[i].line == line {
			e = &u.llb[i]
			break
		}
	}
	if e == nil {
		if u.writeCount >= u.sys.variant.LLBEntries ||
			(!u.sys.variant.L1ReadSet && len(u.llb) == cap(u.llb)) {
			u.c.RaiseAbortAt(sim.AbortCapacity, 0, line)
		}
		u.llb = append(u.llb, llbEntry{line: line})
		u.sys.met.llbHigh.High(u.c.ID(), uint64(len(u.llb)))
		e = &u.llb[len(u.llb)-1]
	}
	if !e.written {
		e.written = true
		u.writeCount++
		u.sys.m.Mem.LoadLine(line, &e.backup)
	}
	if u.sys.variant.L1ReadSet {
		// The LLB monitors the line now; the L1 mark is redundant.
		if _, ok := u.readSet[line]; ok {
			delete(u.readSet, line)
			u.sys.m.Hier.SetSpecRead(u.c.ID(), line, false)
		}
	}
	p.Holders |= bit
	p.SetOwner(u.c.ID())
}

// trackWriteCache implements the pure cache-based variant's write path:
// the line's speculative mark lives in L1 (so displacement aborts), and
// the pre-transaction data is backed up for rollback — the write-back to a
// backup location §2.3 describes for dirty lines.
func (u *Unit) trackWriteCache(line mem.Addr, p *cache.LineState, bit uint64) {
	if !u.sys.m.Hier.SetSpecRead(u.c.ID(), line, true) {
		u.c.RaiseAbortAt(sim.AbortCapacity, 0, line)
	}
	var backup [mem.WordsPerLine]mem.Word
	u.sys.m.Mem.LoadLine(line, &backup)
	u.cacheWrites[line] = &backup
	u.writeCount++
	delete(u.readSet, line) // now tracked as a write
	p.Holders |= bit
	p.SetOwner(u.c.ID())
}
