package asf

import (
	"slices"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// lineBackup is the pre-region copy of one speculatively written line,
// written back on abort.
type lineBackup struct {
	line   mem.Addr
	backup [mem.WordsPerLine]mem.Word
}

// initialWrites is how many backups each unit's write list holds before it
// first grows. At most 8 lines are written per region on 767 of the server
// sweep's 792 ASF cores, 420 of intset's 480 and 438 of stamp's 480.
const initialWrites = 8

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

	// llb holds the addresses of the lines the locked-line buffer
	// protects: the read and write sets on the pure-LLB variants, the
	// write set on the hybrid ones. Its capacity is the variant's
	// LLBEntries, so it never grows.
	llb []mem.Addr
	// writes holds the backups of the region's written lines, in write
	// order, on every variant; its length is the write-set size.
	writes  []lineBackup
	readSet map[mem.Addr]struct{} // hybrid/cache variants: read lines marked in L1

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
	for i := range u.writes {
		w := &u.writes[i]
		// Write the backup copy back before any probe is answered;
		// drop the (now stale) cached copy.
		memory.StoreLine(w.line, &w.backup)
		hier.Drop(u.c.ID(), w.line)
	}
	u.releaseAll()
	if u.sys.variant.L1ReadSet {
		hier.FlashClearSpecRead(u.c.ID())
	}
	u.lastAbortCost = AbortBaseCost + AbortPerLine*uint64(len(u.writes))
	read, write := u.setSizes()
	u.lastRead, u.lastWrite = read, write
	u.sys.met.readAbort.Observe(u.c.ID(), read)
	u.sys.met.writeAbort.Observe(u.c.ID(), write)
	u.reset()
	u.sys.met.aborts[reason].Inc(u.c.ID())
}

// setSizes reports the region's current read- and write-set sizes in lines.
// On the pure-LLB variants the LLB holds both sets; on the others every
// read line is marked in L1.
func (u *Unit) setSizes() (read, write uint64) {
	write = uint64(len(u.writes))
	if u.sys.variant.L1ReadSet {
		return uint64(len(u.readSet)), write
	}
	return uint64(len(u.llb)) - write, write
}

func (u *Unit) reset() {
	u.llb = u.llb[:0]
	u.writes = u.writes[:0]
	clear(u.readSet)
	u.active = false
	u.depth = 0
}

// releaseAll drops this core's marks from every line the region protects.
// A released slot stays in the directory until a purge (see System.prot);
// a neutral slot is indistinguishable from an absent one to every probe.
func (u *Unit) releaseAll() {
	prot, id := &u.sys.prot, u.c.ID()
	for _, line := range u.llb {
		prot.Release(id, line)
	}
	for line := range u.readSet {
		prot.Release(id, line)
	}
	if u.sys.variant.CacheBased {
		// No LLB: the written lines are in the write list alone.
		for i := range u.writes {
			prot.Release(id, u.writes[i].line)
		}
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
		line, id := a.Line(), u.c.ID()
		p := u.sys.prot.Find(line)
		bit := uint64(1) << uint(id)
		if p == nil || p.Holders&bit == 0 || p.Owner() == id {
			return // not protected here, or written: cannot release
		}
		p.Holders &^= bit
		if u.sys.variant.L1ReadSet {
			delete(u.readSet, line)
			u.sys.m.Hier.SetSpecRead(id, line, false)
			return
		}
		i := slices.Index(u.llb, line)
		u.llb[i] = u.llb[len(u.llb)-1]
		u.llb = u.llb[:len(u.llb)-1]
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
	if u.sys.variant.ASF1 && len(u.writes) > 0 {
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
		u.appendLLB(line)
	}
	p.Holders |= bit
}

func (u *Unit) trackWrite(line mem.Addr) {
	p := u.sys.prot.GetOrInsert(line)
	id := u.c.ID()
	bit := uint64(1) << uint(id)
	if p.Owner() == id {
		return // already in the write set
	}
	held := p.Holders&bit != 0
	if u.sys.variant.ASF1 && len(u.writes) > 0 && !held {
		// ASF1: no new protected lines after the atomic phase starts.
		u.c.RaiseAbort(sim.AbortDisallowed, 0)
	}
	switch {
	case u.sys.variant.CacheBased:
		// The line's speculative mark lives in L1, so displacement
		// aborts; its pre-region data is backed up for rollback, the
		// write-back to a backup location §2.3 describes for dirty
		// lines.
		if !u.sys.m.Hier.SetSpecRead(id, line, true) {
			u.c.RaiseAbortAt(sim.AbortCapacity, 0, line)
		}
		delete(u.readSet, line) // now tracked as a write
	case u.sys.variant.L1ReadSet:
		// The LLB holds the write set only; a held line is a read
		// marked in L1, which the LLB entry makes redundant.
		u.appendLLB(line)
		if held {
			delete(u.readSet, line)
			u.sys.m.Hier.SetSpecRead(id, line, false)
		}
	case !held:
		u.appendLLB(line) // a held line upgrades its read entry
	}
	u.writes = append(u.writes, lineBackup{line: line})
	u.sys.m.Mem.LoadLine(line, &u.writes[len(u.writes)-1].backup)
	p.Holders |= bit
	p.SetOwner(id)
}

// appendLLB gives line an LLB entry, or aborts the region when the LLB is
// full.
func (u *Unit) appendLLB(line mem.Addr) {
	if len(u.llb) == cap(u.llb) {
		u.c.RaiseAbortAt(sim.AbortCapacity, 0, line)
	}
	u.llb = append(u.llb, line)
	u.sys.met.llbHigh.High(u.c.ID(), uint64(len(u.llb)))
}
