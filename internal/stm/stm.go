// Package stm is the software-TM baseline of the evaluation: a word-based,
// time-based STM in write-through mode, modelled on TinySTM 0.9.9 exactly
// as the paper configures it (§5).
//
// The algorithm is encounter-time locking with in-place (write-through)
// updates and an undo log:
//
//   - a global version clock and an array of versioned locks, hashed by
//     word address, both living in *simulated* memory so every barrier's
//     metadata traffic is charged by the cache model rather than assumed;
//   - reads are invisible: read the lock, read the data, re-read the lock,
//     and validate the version against the transaction's start time, with
//     lazy snapshot extension (LSA) when the version is newer;
//   - writes acquire the lock with a CAS, log the old value, and update
//     memory in place; aborts undo from the log and release the locks;
//   - commit fetches a new timestamp from the global clock, validates the
//     read set if needed, and releases write locks at the new version.
//
// Conflicts abort the transaction via a panic unwound to the retry loop
// (the software analogue of TinySTM's sigsetjmp/siglongjmp), followed by
// randomised exponential back-off.
package stm

import (
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Geometry, contention management and costs.
const (
	// lockBits sets the versioned-lock array size to 2^lockBits entries
	// (one word each). TinySTM's default array is 2^20 entries; scaled
	// to this simulator's footprints we use 2^18 (2 MiB).
	lockBits = 18
	// maxRetriesBeforeSerial bounds optimistic retries before the
	// transaction becomes irrevocable (TinySTM's serial mode).
	maxRetriesBeforeSerial = 64
	// backoffBase and backoffMax bound the exponential back-off (cycles),
	// which doubles at most backoffShift times.
	backoffBase  = 64
	backoffMax   = 1 << 16
	backoffShift = 10

	// Software path lengths, in instructions (beyond the memory traffic,
	// which is charged by the cache model).
	beginInstr            = 70
	commitInstr           = 30
	readInstr             = 35
	writeInstr            = 55
	validateInstrPerEntry = 4
	undoInstrPerEntry     = 6
)

// lock word encoding: LSB set = locked, owner core in the upper bits;
// LSB clear = version (commit timestamp << 1).
func lockedBy(core int) mem.Word     { return mem.Word(core)<<1 | 1 }
func isLocked(l mem.Word) bool       { return l&1 == 1 }
func lockOwner(l mem.Word) int       { return int(l >> 1) }
func versionOf(l mem.Word) uint64    { return uint64(l >> 1) }
func versionWord(ts uint64) mem.Word { return mem.Word(ts << 1) }

// Runtime implements tm.Runtime with the TinySTM algorithm.
type Runtime struct {
	// PrivatizationSafe enables commit-time quiescence (TinySTM's
	// stm_quiesce): a committing writer waits until every concurrent
	// transaction has finished or revalidated against its commit before
	// returning. Without it a doomed transaction can write through — or
	// undo — in place *after* a privatizing transaction committed,
	// clobbering data its owner now accesses with plain operations (the
	// litmus suite's privatization test catches exactly this). New turns
	// it on; the litmus matrix turns it off to pin the unsafe behaviour as
	// a regression. Set it before the first transaction.
	PrivatizationSafe bool

	heap *tm.Heap

	clockAddr mem.Addr // global version clock
	lockBase  mem.Addr // versioned-lock array
	lockMask  uint64

	serial tm.SerialToken // irrevocable-mode token

	// statusBase is the per-core published transaction status used by
	// commit-time quiescence, one cache line per core. The word encodes
	// start<<1|1 while a revocable transaction is live and 0 when idle
	// (or irrevocable — a serial transaction can never abort-and-undo, so
	// it is not a zombie hazard and nobody needs to wait for it).
	statusBase mem.Addr

	descs []*txDesc

	tm.Lifecycle

	met rtMetrics
}

// rtMetrics holds the runtime's metric handles (zero-value inert).
type rtMetrics struct {
	// attempts is the number of attempts each transaction made before
	// committing (1 = first try).
	attempts metrics.Histogram
	// backoff records each contention back-off delay, in cycles.
	backoff metrics.Histogram
	// Read/write-set sizes (in entries) observed at commit.
	readCommit  metrics.Histogram
	writeCommit metrics.Histogram
	// serialEntries counts entries into serial-irrevocable mode;
	// serialCycles accumulates simulated cycles the global token was held.
	serialEntries metrics.Counter
	serialCycles  metrics.Counter
}

// SetMetrics registers the runtime's instruments with reg. Must be called
// before the first transaction (stack construction does this).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met.attempts = reg.Histogram("stm/attempts", metrics.PowersOfTwo(8))
	r.met.backoff = reg.Histogram("stm/backoff_cycles", metrics.PowersOfTwo(16))
	sizes := metrics.PowersOfTwo(10)
	r.met.readCommit = reg.Histogram("stm/readset_entries/commit", sizes)
	r.met.writeCommit = reg.Histogram("stm/writeset_entries/commit", sizes)
	r.met.serialEntries = reg.Counter("stm/serial_entries")
	r.met.serialCycles = reg.Counter("stm/serial_cycles")
}

type readEntry struct {
	lockAddr mem.Addr
	version  mem.Word // lock word observed at read time
}

type writeEntry struct {
	addr     mem.Addr
	old      mem.Word
	lockAddr mem.Addr
	first    bool // first entry holding this lock (release point)
}

type txDesc struct {
	tm.Frame
	r           *Runtime
	c           *sim.CPU
	start       uint64
	reads       []readEntry
	writes      []writeEntry
	serialStart uint64 // cycle the irrevocability token was acquired
	forceSerial bool   // BecomeIrrevocable requested a serial restart
	aborted     int    // software attempts before the serial one
	log         tm.LogSpace
}

// New builds the STM over machine m. Its metadata (clock, lock array,
// per-thread logs) is laid out in layout's space and prefaulted: TinySTM
// allocates these at startup.
func New(m *sim.Machine, heap *tm.Heap, layout *mem.Layout) *Runtime {
	cores := m.Config().Cores
	r := &Runtime{PrivatizationSafe: true, heap: heap, Lifecycle: tm.NewLifecycle(cores)}

	nLocks := uint64(1) << lockBits
	base, end := layout.Region(nLocks*mem.WordSize + 2*mem.PageSize)
	m.Mem.Prefault(base, uint64(end-base))
	r.clockAddr = base
	r.serial = tm.SerialToken{Addr: base + mem.LineSize}
	r.lockBase = base + mem.PageSize
	r.lockMask = nLocks - 1

	statusBase, statusEnd := layout.Region(uint64(cores) * mem.LineSize)
	m.Mem.Prefault(statusBase, uint64(statusEnd-statusBase))
	r.statusBase = statusBase

	for i := 0; i < cores; i++ {
		r.descs = append(r.descs, &txDesc{r: r, c: m.CPU(i), log: tm.NewLogSpace(m.Mem, layout)})
	}
	return r
}

// Name implements tm.Runtime.
func (r *Runtime) Name() string { return "STM" }

func (r *Runtime) lockFor(a mem.Addr) mem.Addr {
	idx := (uint64(a) >> mem.WordShift) & r.lockMask
	return r.lockBase + mem.Addr(idx*mem.WordSize)
}

func (r *Runtime) statusAddr(core int) mem.Addr {
	return r.statusBase + mem.Addr(uint64(core)*mem.LineSize)
}

// publishStatus records this core's live start timestamp (or idle) for
// quiescing committers.
func (t *txDesc) publishStatus(live bool) {
	if !t.r.PrivatizationSafe {
		return
	}
	w := mem.Word(0)
	if live {
		w = mem.Word(t.start)<<1 | 1
	}
	t.c.Store(t.r.statusAddr(t.c.ID()), w)
}

// quiesce is the privatization-safety wait: after publishing a commit at
// timestamp ts (locks already released), wait until no other core is still
// running a transaction that started before ts. Any such transaction is a
// potential zombie — doomed by this commit but not yet aware — and could
// otherwise write through, or roll back, in place after our caller starts
// treating the data as private. The committer's own status is already idle,
// so two quiescing writers never wait for each other; zombies drain because
// their next barrier revalidates against the moved clock and aborts.
func (r *Runtime) quiesce(c *sim.CPU, ts uint64) {
	if !r.PrivatizationSafe || len(r.descs) == 1 {
		return
	}
	me := c.ID()
	for i := range r.descs {
		if i == me {
			continue
		}
		for {
			s := c.Load(r.statusAddr(i))
			if s&1 == 0 || uint64(s>>1) >= ts {
				break
			}
			c.Cycles(120)
		}
	}
}

// Atomic implements tm.Runtime.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	r.Run(c, r.descs[c.ID()], tm.PathSW, body)
}

// Enter implements tm.Paths: the serial path takes the irrevocability
// token as it is entered, in the abort handler, and then runs like the
// software path; all other transactions fail validation against its
// in-place writes and wait out the token.
func (t *txDesc) Enter(p tm.TxPath) {
	if p == tm.PathSerial {
		t.r.serial.Acquire(t.c)
		t.r.met.serialEntries.Inc(t.c.ID())
		t.serialStart = t.c.Now()
	}
}

// Attempt implements tm.Paths: conflicts unwind to the driver.
func (t *txDesc) Attempt(p tm.TxPath, body func(tm.Tx)) bool {
	t.begin()
	tm.RunBody(t.c, t, body)
	t.commit()
	t.r.NotifyCommit(t.c, p == tm.PathSerial)
	if p == tm.PathSerial {
		t.r.serial.Release(t.c)
	}
	return true
}

// Aborted implements tm.Paths: roll back in-place writes and release
// locks.
func (t *txDesc) Aborted(_ tm.TxPath, ev tm.TxEvent) tm.TxEvent {
	t.undo()
	t.publishStatus(false)
	ev.STM, ev.Reads, ev.Writes = true, uint32(len(t.reads)), uint32(len(t.writes))
	return ev
}

// Retry implements tm.Paths: back off, then go serial after
// maxRetriesBeforeSerial attempts or on an irrevocability request.
func (t *txDesc) Retry(p tm.TxPath, n int) tm.TxPath {
	c := t.c
	t.reset()
	t.r.met.backoff.Observe(c.ID(), tm.Backoff(c, n, backoffBase, backoffShift, backoffMax))
	if n >= maxRetriesBeforeSerial || t.forceSerial {
		t.forceSerial = false
		t.aborted = n
		return tm.PathSerial
	}
	return p
}

// Committed implements tm.Paths.
func (t *txDesc) Committed(p tm.TxPath, n int, ev tm.TxEvent) tm.TxEvent {
	id := t.c.ID()
	if p == tm.PathSerial {
		t.r.met.serialCycles.Add(id, t.c.Now()-t.serialStart)
	}
	t.r.met.attempts.Observe(id, uint64(t.aborted+n))
	t.r.met.readCommit.Observe(id, uint64(len(t.reads)))
	t.r.met.writeCommit.Observe(id, uint64(len(t.writes)))
	ev.Reads, ev.Writes = uint32(len(t.reads)), uint32(len(t.writes))
	t.aborted = 0
	t.reset()
	return ev
}

// --- transaction descriptor ----------------------------------------------

// begin starts an attempt. An irrevocable attempt already holds the token
// and runs with locking but without the possibility of self-abort; any
// other waits for an irrevocable transaction to drain.
func (t *txDesc) begin() {
	c := t.c
	c.Exec(beginInstr)
	if !t.Irrevocable() && len(t.r.descs) > 1 {
		t.r.serial.Drain(c)
	}
	t.start = versionOf(c.Load(t.r.clockAddr) &^ 1)
	if !t.Irrevocable() {
		t.publishStatus(true)
	}
}

// ownerOf resolves a lock word to an owner core for abort attribution.
func ownerOf(l mem.Word) int {
	if isLocked(l) {
		return lockOwner(l)
	}
	return sim.NoCore
}

// Load implements tm.Tx: TinySTM's invisible read with LSA extension.
func (t *txDesc) Load(a mem.Addr) mem.Word {
	c := t.c
	prev := c.SetCategory(sim.CatTxLoadStore)
	defer c.SetCategory(prev)

	c.Exec(readInstr)
	la := t.r.lockFor(a)
	l := c.Load(la)
	if isLocked(l) {
		if lockOwner(l) == c.ID() {
			return c.Load(a) // read own write (in place)
		}
		if t.Irrevocable() {
			// Irrevocable transactions cannot abort; spin until
			// the owner finishes.
			for isLocked(l) {
				c.Cycles(100)
				l = c.Load(la)
			}
		} else {
			t.Abandon(t.c, lockOwner(l), a)
		}
	}
	v := c.Load(a)
	l2 := c.Load(la)
	if l2 != l {
		if t.Irrevocable() {
			return t.Load(a)
		}
		t.Abandon(t.c, ownerOf(l2), a)
	}
	if versionOf(l) > t.start {
		t.extend()
	}
	// Append to the read log (one simulated store).
	c.Store(t.log.ReadSlot(len(t.reads), mem.WordSize), mem.Word(la))
	t.reads = append(t.reads, readEntry{lockAddr: la, version: l})
	return v
}

// Store implements tm.Tx: encounter-time locking, write-through with undo.
func (t *txDesc) Store(a mem.Addr, v mem.Word) {
	c := t.c
	prev := c.SetCategory(sim.CatTxLoadStore)
	defer c.SetCategory(prev)

	c.Exec(writeInstr)
	la := t.r.lockFor(a)
	l := c.Load(la)
	first := false
	if isLocked(l) {
		if lockOwner(l) != c.ID() {
			if t.Irrevocable() {
				for isLocked(l) {
					c.Cycles(100)
					l = c.Load(la)
				}
			} else {
				t.Abandon(t.c, lockOwner(l), a)
			}
		}
	}
	if !isLocked(l) || lockOwner(l) != c.ID() {
		if versionOf(l) > t.start {
			t.extend()
		}
		if cur, ok := c.CAS(la, l, lockedBy(c.ID())); !ok {
			if t.Irrevocable() {
				t.Store(a, v) // retry
				return
			}
			t.Abandon(t.c, ownerOf(cur), a)
		}
		first = true
	}
	old := c.Load(a)
	// Undo-log append: address + old value (two simulated stores).
	slot := t.log.WriteSlot(len(t.writes), 2*mem.WordSize)
	c.Store(slot, mem.Word(a))
	c.Store(slot+mem.WordSize, old)
	t.writes = append(t.writes, writeEntry{addr: a, old: old, lockAddr: la, first: first})
	c.Store(a, v)
}

// extend attempts LSA snapshot extension: validate every read entry, then
// move the start timestamp to the current clock.
func (t *txDesc) extend() {
	c := t.c
	now := versionOf(c.Load(t.r.clockAddr) &^ 1)
	for i := range t.reads {
		e := &t.reads[i]
		c.Exec(validateInstrPerEntry)
		l := c.Load(e.lockAddr)
		if l != e.version && !(isLocked(l) && lockOwner(l) == c.ID()) {
			if t.Irrevocable() {
				continue
			}
			t.Abandon(t.c, ownerOf(l), sim.NoAddr)
		}
	}
	t.start = now
	if !t.Irrevocable() {
		// The snapshot moved forward: quiescers waiting on this commit's
		// timestamp may now stop waiting for us.
		t.publishStatus(true)
	}
}

func (t *txDesc) commit() {
	c := t.c
	c.Exec(commitInstr)
	if len(t.writes) == 0 {
		t.publishStatus(false)
		return // read-only: nothing to publish, nobody saw us
	}
	// An irrevocable transaction may have taken the token after we
	// started: it reads in place without logging, so we must not publish
	// underneath it. (It spins on our locks, so once it can read our
	// words we have either fully committed or fully undone.)
	if !t.Irrevocable() && c.Load(t.r.serial.Addr) != 0 {
		t.Abandon(t.c, sim.NoCore, t.r.serial.Addr)
	}
	ts := uint64(c.FetchAdd(t.r.clockAddr, 2))>>1 + 1
	if ts > t.start+1 {
		t.extend()
	}
	for i := range t.writes {
		w := &t.writes[i]
		if w.first {
			c.Store(w.lockAddr, versionWord(ts))
		}
	}
	// Locks are released and this commit can no longer fail, so going idle
	// first keeps concurrent quiescing writers from waiting on each other.
	t.publishStatus(false)
	t.r.quiesce(c, ts)
}

// undo rolls back in-place writes (reverse order) and releases locks.
//
// The locks are released at a *fresh* timestamp, not the old one: the
// speculative values were transiently visible in place, so a concurrent
// reader whose two lock reads bracket our write+undo window must fail its
// validation — restoring the old version would be an ABA. (TinySTM's
// write-through rollback does the same.)
func (t *txDesc) undo() {
	c := t.c
	if len(t.writes) == 0 {
		return
	}
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := &t.writes[i]
		c.Exec(undoInstrPerEntry)
		c.Store(w.addr, w.old)
	}
	ts := uint64(c.FetchAdd(t.r.clockAddr, 2))>>1 + 1
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := &t.writes[i]
		if w.first {
			c.Store(w.lockAddr, versionWord(ts))
		}
	}
}

func (t *txDesc) reset() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
}

// Alloc implements tm.Tx. The STM can refill inline: no speculative region
// is at risk.
func (t *txDesc) Alloc(size uint64) mem.Addr { return t.r.heap.Alloc(t.c, size, mem.WordSize) }

// AllocLines implements tm.Tx.
func (t *txDesc) AllocLines(n int) mem.Addr {
	return t.r.heap.Alloc(t.c, uint64(n)*mem.LineSize, mem.LineSize)
}

// Free implements tm.Tx.
func (t *txDesc) Free(a mem.Addr) { t.r.heap.Free(t.c, a) }

// CPU implements tm.Tx.
func (t *txDesc) CPU() *sim.CPU { return t.c }

// BecomeIrrevocable implements tm.Irrevocably: abort and restart holding
// the irrevocability token (TinySTM's stm_set_irrevocable with restart).
func (t *txDesc) BecomeIrrevocable() {
	if t.Irrevocable() {
		return
	}
	t.forceSerial = true
	t.Abandon(t.c, sim.NoCore, sim.NoAddr)
}
