// Package cohorts is the fourth TM runtime of the stack: a Cohorts-style
// software TM (modelled on llvm-transmem's cohorts.h and the published
// Cohorts algorithm) behind the same tm ABI as ASF-TM, TinySTM and the
// hybrid runtime.
//
// The design point is the fence-free end of the concurrency/cost frontier:
//
//   - validation uses *values*, not a lock table or timestamps — there is
//     no per-word metadata at all, so read and write barriers touch only
//     the transaction's own logs;
//   - speculative writes go out of place into a redo log; memory holds
//     committed state for the whole run phase of a cohort;
//   - commits happen in *batches* (cohorts): transactions that begin
//     together commit together, in seal order, and abort only at commit
//     time — there is no mid-transaction conflict detection, which is what
//     makes the barriers fence-free on relaxed-memory hardware;
//   - "turbo mode" (published but unimplemented in cohorts.h): when every
//     other member of a sealed cohort is waiting to commit, the one
//     transaction still running drops all read/write instrumentation —
//     it writes its redo log back in place, continues with plain accesses,
//     and commits first; the waiting members then validate against its
//     writes like against any earlier committer.
//
// The shared state is three counters on dedicated cache lines in
// *simulated* memory (STARTED, SEALED, FINISHED — the cohorts.h globals),
// plus a commit-order word and a turbo/solo word; all cohort-membership
// traffic is charged by the cache model.
//
// Cohort protocol. A transaction may join (STARTED++) only while the
// current cohort is open (SEALED == 0). The first transaction to reach its
// commit point seals the cohort (SEALED++ makes it non-zero), which closes
// admission; every member seals in turn and then waits until
// STARTED == SEALED. Commit proceeds in seal order: member i waits for the
// order word to reach i, validates its value log against memory (the first
// committer of a turbo-free cohort skips this — nothing was written back
// since the cohort opened), writes its redo log back, and passes the turn.
// A validation failure aborts — the only abort point in the algorithm —
// and the loser retries in a later cohort. The last member to finish
// rewinds the counters (arithmetically, so racing joiners that back out
// never corrupt them) and reopens admission.
//
// Irrevocability. Cohorts cannot make a transaction irrevocable in place
// (any member may still abort it at commit by committing ahead of it), so
// BecomeIrrevocable seals-and-drains to a *solo cohort*: the transaction
// unwinds, closes admission via the solo word, waits until the counters
// show no live cohort, and re-runs alone with plain in-place accesses —
// a cohort of one that cannot abort. This keeps the runtime ABI-complete
// instead of panicking like cohorts.h's assert.
package cohorts

import (
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Policies and software path lengths.
const (
	// maxAttempts is the starvation valve: commit-validation failures
	// before the transaction escalates to a solo (irrevocable) cohort.
	// A validation failure implies another transaction committed, so the
	// system always makes progress; the valve only bounds per-transaction
	// starvation.
	maxAttempts = 4096
	// spinCycles is the poll interval for the admission gate and the
	// seal/order waits.
	spinCycles = 160

	// Software path lengths, in instructions (beyond the memory traffic,
	// which is charged by the cache model). The barriers are cheaper than
	// TinySTM's: no lock-table hashing, no version checks — one log append.
	beginInstr             = 40
	commitInstr            = 24
	readInstr              = 12
	writeInstr             = 16
	validateInstrPerEntry  = 4
	writebackInstrPerEntry = 4
)

// Runtime implements tm.Runtime with the Cohorts algorithm.
type Runtime struct {
	m    *sim.Machine
	heap *tm.Heap
	// turboMode enables turbo mode: the last running transaction of a
	// sealed cohort drops instrumentation and commits first.
	turboMode bool

	// The shared counters, each alone on its cache line (the cohorts.h
	// pad_dword_t discipline — sealing must not false-share with joining).
	started  mem.Addr // live transactions admitted to the current cohort
	sealed   mem.Addr // members that reached their commit point
	finished mem.Addr // members done with the commit phase
	order    mem.Addr // commit-order turn among non-turbo members
	turbo    mem.Addr // core+1 of the cohort's turbo transaction, else 0
	solo     mem.Addr // solo-cohort (irrevocable) admission latch

	txs   []coTx
	depth []int // per-core flat-nesting depth of Atomic calls

	tm.StatsTable
	tm.Observers

	// turboInCohort counts turbo entries in the current cohort and
	// turboViolations records cohorts that saw more than one — the
	// invariant the turbo regression test pins. Both are only touched
	// under sim.CPU.SpecOp (holding the global turn), so plain host
	// fields are race-free.
	turboInCohort   int
	turboViolations int

	met rtMetrics
}

// rtMetrics holds the runtime's metric handles (zero-value inert).
type rtMetrics struct {
	// attempts is the number of attempts each transaction made before
	// committing (1 = first try; aborts happen only at commit time).
	attempts metrics.Histogram
	// cohortSize records each cohort's member count at reset.
	cohortSize metrics.Histogram
	// sealWait / orderWait accumulate cycles spent between sealing and the
	// commit phase opening, and waiting for the in-order commit turn.
	sealWait  metrics.Counter
	orderWait metrics.Counter
	// turboCommits counts transactions that committed in turbo mode;
	// roCommits counts read-only transactions that left their cohort
	// without sealing; soloEntries counts solo (irrevocable) cohorts.
	turboCommits metrics.Counter
	roCommits    metrics.Counter
	soloEntries  metrics.Counter
	// validationAborts counts commit-time value-validation failures (the
	// algorithm's only abort point).
	validationAborts metrics.Counter
}

// SetMetrics registers the runtime's instruments with reg. Must be called
// before the first transaction (stack construction does this).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met.attempts = reg.Histogram("cohorts/attempts", metrics.PowersOfTwo(8))
	r.met.cohortSize = reg.Histogram("cohorts/cohort_size", metrics.PowersOfTwo(6))
	r.met.sealWait = reg.Counter("cohorts/seal_wait_cycles")
	r.met.orderWait = reg.Counter("cohorts/order_wait_cycles")
	r.met.turboCommits = reg.Counter("cohorts/turbo_commits")
	r.met.roCommits = reg.Counter("cohorts/ro_commits")
	r.met.soloEntries = reg.Counter("cohorts/solo_entries")
	r.met.validationAborts = reg.Counter("cohorts/validation_aborts")
}

// New builds the Cohorts runtime over machine m, with turbo mode on or off
// (the "Cohorts-turbo" and "Cohorts" figure labels). Its metadata (the
// cohort counters and the per-thread logs) is laid out in layout's space
// and prefaulted.
func New(m *sim.Machine, heap *tm.Heap, layout *mem.Layout, turbo bool) *Runtime {
	cores := m.Config().Cores
	r := &Runtime{
		m:          m,
		heap:       heap,
		turboMode:  turbo,
		txs:        make([]coTx, cores),
		depth:      make([]int, cores),
		StatsTable: make(tm.StatsTable, cores),
	}
	base, end := layout.Region(6 * mem.LineSize)
	m.Mem.Prefault(base, uint64(end-base))
	r.started = base
	r.sealed = base + 1*mem.LineSize
	r.finished = base + 2*mem.LineSize
	r.order = base + 3*mem.LineSize
	r.turbo = base + 4*mem.LineSize
	r.solo = base + 5*mem.LineSize

	for i := range r.txs {
		r.txs[i] = coTx{
			r:      r,
			windex: make(map[mem.Addr]int),
			log:    tm.NewLogSpace(m.Mem, layout),
		}
	}
	return r
}

// Name implements tm.Runtime.
func (r *Runtime) Name() string {
	if r.turboMode {
		return "Cohorts-turbo"
	}
	return "Cohorts"
}

// TurboViolations returns how many cohorts saw more than one turbo entry —
// always zero; the turbo regression test pins the invariant.
func (r *Runtime) TurboViolations() int { return r.turboViolations }

// Counters returns the current (started, sealed, finished, order) counter
// values from simulated memory — a barrier-only debug/test accessor.
func (r *Runtime) Counters() (started, sealed, finished, order uint64) {
	return uint64(r.m.Mem.Load(r.started)), uint64(r.m.Mem.Load(r.sealed)),
		uint64(r.m.Mem.Load(r.finished)), uint64(r.m.Mem.Load(r.order))
}

// Transaction modes.
const (
	modeInstr = iota // instrumented: value log + redo log
	modeTurbo        // turbo: plain accesses, commits first in its cohort
	modeSolo         // solo cohort: irrevocable, plain accesses, alone
)

// Atomic implements tm.Runtime.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	id := c.ID()
	if r.depth[id] > 0 {
		// Flat nesting at the language level.
		r.depth[id]++
		body(&r.txs[id])
		r.depth[id]--
		return
	}
	r.depth[id] = 1
	defer func() { r.depth[id] = 0 }()

	st := &r.StatsTable[id]
	t := &r.txs[id]
	t.c = c

	attempts := 0
	for {
		attempts++
		c.SetCategory(sim.CatTxStartCommit)
		snap := c.Counters()
		attemptStart := c.Now()
		if attempts == 1 {
			r.Record(c, tm.TxEvent{Kind: tm.TxEvBegin, Path: tm.PathSW,
				Aborter: sim.NoCore, Addr: sim.NoAddr})
		}
		t.begin()

		committed := tm.Attempt(c, func() {
			c.SetCategory(sim.CatTxApp)
			body(t)
			c.SetCategory(sim.CatTxStartCommit)
			t.commit()
		})

		if committed {
			st.Commits++
			r.met.attempts.Observe(id, uint64(attempts))
			path := tm.PathSW
			if t.mode == modeTurbo {
				path = tm.PathTurbo
			}
			r.Record(c, tm.TxEvent{Kind: tm.TxEvCommit, Path: path,
				Aborter: sim.NoCore, Addr: sim.NoAddr,
				Reads: uint32(len(t.reads)), Writes: uint32(len(t.writes)), Cycles: c.Now() - attemptStart})
			t.reset()
			c.SetCategory(sim.CatNonInstr)
			return
		}

		// Aborted at commit validation (or unwound by BecomeIrrevocable):
		// the redo log was never published, so there is nothing to undo.
		c.MoveToAbort(snap)
		c.SetCategory(sim.CatAbort)
		force := t.forceSolo
		t.forceSolo = false
		ev := tm.TxEvent{Kind: tm.TxEvAbort, Path: tm.PathSW,
			STM: true, Aborter: t.lastBy, Addr: t.lastAddr,
			Reads: uint32(len(t.reads)), Writes: uint32(len(t.writes)), Cycles: c.Now() - attemptStart}
		if force {
			// The irrevocability unwind, recorded as ASF-TM records its own.
			ev.STM, ev.Cause, ev.Code = false, sim.AbortExplicit, tm.CodeSerialRequest
			ev.Aborter, ev.Addr = sim.NoCore, sim.NoAddr
		} else {
			st.STMAborts++
		}
		r.Record(c, ev)
		t.reset()
		if force || attempts >= maxAttempts {
			r.Record(c, tm.TxEvent{Kind: tm.TxEvFallback, Path: tm.PathSerial,
				Aborter: sim.NoCore, Addr: sim.NoAddr})
			r.runSolo(c, t, body)
			return
		}
	}
}

// runSolo executes body as a solo cohort: admission latched shut, existing
// cohorts drained, then plain in-place accesses with no possibility of
// abort — the runtime's serial-irrevocable mode.
func (r *Runtime) runSolo(c *sim.CPU, t *coTx, body func(tx tm.Tx)) {
	id := c.ID()
	st := &r.StatsTable[id]
	c.SetCategory(sim.CatTxStartCommit)
	attemptStart := c.Now()
	// Latch the solo word (queue behind any other solo transaction).
	for {
		if _, ok := c.CAS(r.solo, 0, mem.Word(id+1)); ok {
			break
		}
		c.Cycles(uint64(c.Rand().Int63n(spinCycles)) + spinCycles)
	}
	// Drain: no new members can join (begin re-checks solo after its
	// increment), so wait until every live cohort has fully finished and
	// rewound its counters. Transient joiner increments back out on their
	// own once they observe the latch.
	for {
		if c.Load(r.started) == 0 && c.Load(r.sealed) == 0 {
			break
		}
		c.Cycles(spinCycles)
	}
	r.met.soloEntries.Inc(id)
	t.mode = modeSolo
	c.SetCategory(sim.CatTxApp)
	body(t)
	c.SetCategory(sim.CatTxStartCommit)
	c.Exec(commitInstr)
	r.NotifyCommit(c, true) // before the release: the latch is the commit point
	c.Store(r.solo, 0)
	t.mode = modeInstr
	st.Commits++
	st.Serial++
	r.Record(c, tm.TxEvent{Kind: tm.TxEvCommit, Path: tm.PathSerial,
		Aborter: sim.NoCore, Addr: sim.NoAddr, Cycles: c.Now() - attemptStart})
	c.SetCategory(sim.CatNonInstr)
}

// --- transaction descriptor ------------------------------------------------

type readEntry struct {
	addr mem.Addr
	val  mem.Word
}

type writeEntry struct {
	addr mem.Addr
	val  mem.Word
}

// coTx implements tm.Tx for the three Cohorts code paths — instrumented,
// turbo, solo — dispatched by mode.
type coTx struct {
	r    *Runtime
	c    *sim.CPU
	mode int

	// forceSolo carries a BecomeIrrevocable request out of the abort
	// unwind; irrevocable marks a turbo transaction granted
	// irrevocability in place.
	forceSolo   bool
	irrevocable bool

	// Value log (reads) and redo log (writes) with a read-own-write index.
	reads  []readEntry
	writes []writeEntry
	windex map[mem.Addr]int
	log    tm.LogSpace

	// lastBy/lastAddr stash the abort edge for the flight recorder before
	// the software longjmp unwinds (value validation cannot identify the
	// aborter, so lastBy stays sim.NoCore).
	lastBy   int
	lastAddr mem.Addr
}

func (t *coTx) abort() {
	t.abortAt(sim.NoAddr)
}

// abortAt records the conflicting address, then unwinds.
func (t *coTx) abortAt(a mem.Addr) {
	t.lastBy, t.lastAddr = sim.NoCore, a
	tm.Unwind(t.c)
}

// begin joins the current cohort: admission is open while no member has
// sealed (SEALED == 0) and no solo transaction holds the latch. The join
// is optimistic — increment STARTED, then re-check; a raced seal or solo
// latch backs the increment out arithmetically, which is safe against the
// commit phase's counter rewind (also arithmetic) at any interleaving.
func (t *coTx) begin() {
	c := t.c
	r := t.r
	c.Exec(beginInstr)
	t.mode = modeInstr
	t.irrevocable = false
	for {
		if c.Load(r.solo) != 0 || c.Load(r.sealed) != 0 {
			c.Cycles(spinCycles)
			continue
		}
		c.FetchAdd(r.started, 1)
		if c.Load(r.solo) == 0 && c.Load(r.sealed) == 0 {
			return // joined the open cohort
		}
		c.FetchAdd(r.started, ^mem.Word(0)) // back out and wait
		c.Cycles(spinCycles)
	}
}

// maybeTurbo checks whether this transaction is the last one still running
// in a sealed cohort and, if so, switches to turbo mode: the redo log is
// written back in place immediately (every other member is parked at its
// seal wait, so only plain — weakly isolated — readers can observe it) and
// the rest of the transaction runs uninstrumented. Loading SEALED before
// STARTED makes a false positive impossible: once SEALED is observed
// nonzero, admission is closed, so STARTED can only transiently
// over-count (a raced joiner backing out arithmetically) — which misses
// turbo, never falsely enters it. Sampling in the other order would let a
// join between the two loads raise SEALED to match a stale STARTED while
// another instrumented member is still running.
func (t *coTx) maybeTurbo() {
	c := t.c
	r := t.r
	if t.mode != modeInstr || !r.turboMode {
		return
	}
	s := c.Load(r.sealed)
	if s == 0 {
		return
	}
	if c.Load(r.started) != s+1 {
		return
	}
	if _, ok := c.CAS(r.turbo, 0, mem.Word(c.ID()+1)); !ok {
		return
	}
	c.Trace(sim.TraceTurbo, uint64(s))
	c.SpecOp(0, func() {
		r.turboInCohort++
		if r.turboInCohort > 1 {
			r.turboViolations++
		}
	})
	// Publish the redo log in place and go uninstrumented.
	for i := range t.writes {
		w := &t.writes[i]
		c.Exec(writebackInstrPerEntry)
		c.Store(w.addr, w.val)
	}
	t.mode = modeTurbo
}

// commit is the batched cohort commit described in the package comment.
func (t *coTx) commit() {
	c := t.c
	r := t.r
	id := c.ID()
	st := &r.StatsTable[id]
	c.Exec(commitInstr)

	switch t.mode {
	case modeSolo:
		return // runSolo owns the commit protocol
	case modeTurbo:
		// Writes are already in place and nothing can invalidate the
		// value log (every other member is sealed and waiting), so the
		// turbo transaction commits first: seal — which opens the commit
		// phase — and finish without taking an order turn. (A turbo seal
		// is never the cohort's first: turbo requires an existing seal.)
		r.NotifyCommit(c, false)
		c.Trace(sim.TraceCohortSeal, uint64(c.FetchAdd(r.sealed, 1)))
		r.met.turboCommits.Inc(id)
		t.finishMember(false)
		return
	}

	// Read-only fast exit: no writebacks have happened since the cohort
	// opened (the commit phase needs STARTED == SEALED, impossible while
	// this member is unsealed), so the value log is trivially valid and
	// the transaction can leave the cohort without sealing.
	if len(t.writes) == 0 {
		r.NotifyCommit(c, false)
		c.FetchAdd(r.started, ^mem.Word(0))
		r.met.roCommits.Inc(id)
		return
	}

	// Seal: my pre-increment value is my commit order within the cohort;
	// a zero pre-value means this seal closed the cohort's admission —
	// the event the tm/cohort_seals gauge and the abort table's seal
	// column count.
	myOrder := uint64(c.FetchAdd(r.sealed, 1))
	c.Trace(sim.TraceCohortSeal, myOrder)
	if myOrder == 0 {
		st.Seals++
	}

	// Wait for the cohort to finish sealing (every admitted member to
	// reach its commit point; racing joiners back out on their own).
	// Loading SEALED before STARTED makes a spurious pass impossible.
	sealStart := c.Now()
	for {
		s := c.Load(r.sealed)
		if c.Load(r.started) == s {
			break
		}
		c.Cycles(spinCycles)
	}
	r.met.sealWait.Add(id, c.Now()-sealStart)

	// In-order commit: wait for my turn among the non-turbo members.
	// (A turbo member always seals last — it was the last one running —
	// so non-turbo orders are contiguous from zero and the order word
	// only counts non-turbo turns.)
	orderStart := c.Now()
	for uint64(c.Load(r.order)) != myOrder {
		c.Cycles(spinCycles)
	}
	r.met.orderWait.Add(id, c.Now()-orderStart)

	// Validate by value. The first committer of a turbo-free cohort skips
	// this: no writeback has happened since the cohort opened. Any later
	// committer — or any member of a cohort with a turbo transaction —
	// re-reads every logged address and compares values.
	turboHere := c.Load(r.turbo) != 0
	if myOrder > 0 || turboHere {
		for i := range t.reads {
			e := &t.reads[i]
			c.Exec(validateInstrPerEntry)
			if c.Load(e.addr) != e.val {
				r.met.validationAborts.Inc(id)
				t.finishMember(true)
				t.abortAt(e.addr)
			}
		}
	}

	// Write back the redo log and pass the turn.
	for i := range t.writes {
		w := &t.writes[i]
		c.Exec(writebackInstrPerEntry)
		c.Store(w.addr, w.val)
	}
	r.NotifyCommit(c, false)
	t.finishMember(true)
}

// finishMember counts this member as finished — passing the in-order
// commit turn first if it held one — and, when it is the cohort's last,
// rewinds the counters and reopens admission. The turbo member can be the
// last finisher (every order turn may complete between its seal and its
// finished increment), which is why the rewind lives here and not on the
// in-order path. All rewinds are arithmetic (FetchAdd of a negative
// delta), never stores of zero, so joiner increments that are concurrently
// backing out can interleave anywhere without corrupting the counters.
func (t *coTx) finishMember(bumpOrder bool) {
	c := t.c
	r := t.r
	if bumpOrder {
		c.FetchAdd(r.order, 1)
	}
	fin := uint64(c.FetchAdd(r.finished, 1)) + 1
	// SEALED is frozen by the time any member increments FINISHED (the
	// commit phase opens only once every member sealed), so comparing
	// against it is stable.
	size := uint64(c.Load(r.sealed))
	if fin != size {
		return
	}
	// Last finisher: record the cohort and rewind. Only non-turbo members
	// take order turns, so the order word ends at size minus the turbo
	// count. The turbo word is only ever CASed by a running member of
	// *this* cohort (admission is closed), so a plain store resets it
	// safely before admission reopens.
	r.met.cohortSize.Observe(c.ID(), size)
	c.SpecOp(0, func() { r.turboInCohort = 0 })
	orderEnd := size
	if c.Load(r.turbo) != 0 {
		orderEnd = size - 1
		c.Store(r.turbo, 0)
	}
	c.FetchAdd(r.order, ^mem.Word(orderEnd)+1)
	c.FetchAdd(r.finished, ^mem.Word(size)+1)
	c.FetchAdd(r.started, ^mem.Word(size)+1)
	c.FetchAdd(r.sealed, ^mem.Word(size)+1) // last: reopens admission
}

func (t *coTx) reset() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	clear(t.windex)
	t.mode = modeInstr
	t.irrevocable = false
}

// --- tm.Tx -----------------------------------------------------------------

// Load implements tm.Tx: read-own-write from the redo log, else a plain
// load appended to the value log. There is no version to check and no
// fence to take — validation is deferred to the commit turn.
func (t *coTx) Load(a mem.Addr) mem.Word {
	c := t.c
	prev := c.SetCategory(sim.CatTxLoadStore)
	defer c.SetCategory(prev)
	t.maybeTurbo()
	if t.mode != modeInstr {
		c.Exec(2)
		return c.Load(a)
	}
	c.Exec(readInstr)
	if i, ok := t.windex[a]; ok {
		return t.writes[i].val
	}
	v := c.Load(a)
	// Value-log append: address + value (two simulated stores).
	slot := t.log.ReadSlot(len(t.reads), 2*mem.WordSize)
	c.Store(slot, mem.Word(a))
	c.Store(slot+mem.WordSize, v)
	t.reads = append(t.reads, readEntry{addr: a, val: v})
	return v
}

// Store implements tm.Tx: out-of-place append to the redo log. Nothing is
// published until the cohort's commit phase.
func (t *coTx) Store(a mem.Addr, v mem.Word) {
	c := t.c
	prev := c.SetCategory(sim.CatTxLoadStore)
	defer c.SetCategory(prev)
	t.maybeTurbo()
	if t.mode != modeInstr {
		c.Exec(2)
		c.Store(a, v)
		return
	}
	c.Exec(writeInstr)
	if i, ok := t.windex[a]; ok {
		t.writes[i].val = v
		c.Store(t.log.WriteSlot(i, 2*mem.WordSize)+mem.WordSize, v)
		return
	}
	i := len(t.writes)
	slot := t.log.WriteSlot(i, 2*mem.WordSize)
	c.Store(slot, mem.Word(a))
	c.Store(slot+mem.WordSize, v)
	t.windex[a] = i
	t.writes = append(t.writes, writeEntry{addr: a, val: v})
}

// Alloc implements tm.Tx. Cohorts can refill inline: writes are buffered,
// so no speculative region is at risk during the refill.
func (t *coTx) Alloc(size uint64) mem.Addr { return t.r.heap.Alloc(t.c, size, mem.WordSize) }

// AllocLines implements tm.Tx.
func (t *coTx) AllocLines(n int) mem.Addr {
	return t.r.heap.Alloc(t.c, uint64(n)*mem.LineSize, mem.LineSize)
}

// Free implements tm.Tx.
func (t *coTx) Free(a mem.Addr) { t.r.heap.Free(t.c, a) }

// CPU implements tm.Tx.
func (t *coTx) CPU() *sim.CPU { return t.c }

// Irrevocable implements tm.Tx: true in a solo cohort, and for a turbo
// transaction that was granted a BecomeIrrevocable request in place.
func (t *coTx) Irrevocable() bool { return t.mode == modeSolo || t.irrevocable }

// BecomeIrrevocable implements tm.Irrevocably: a Cohorts transaction can
// never become irrevocable in place, so the transaction unwinds and
// restarts as a solo cohort (seal-and-drain; see runSolo). cohorts.h
// asserts instead; the ABI requires an answer.
func (t *coTx) BecomeIrrevocable() {
	if t.mode == modeSolo {
		return
	}
	if t.mode == modeTurbo {
		// A turbo transaction has published writes in place and cannot
		// roll back — but it also cannot abort (every other member of its
		// cohort is sealed and waiting, and turbo commits first), which
		// is the guarantee irrevocability asks for. Grant in place.
		t.irrevocable = true
		return
	}
	// Leave the cohort before unwinding: the started count must not
	// include a member that will never seal.
	t.c.FetchAdd(t.r.started, ^mem.Word(0))
	t.forceSolo = true
	t.abort()
}

// Tx is the exported name of the runtime's transaction descriptor.
type Tx = coTx
