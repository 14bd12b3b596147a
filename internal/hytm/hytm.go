// Package hytm is the hybrid TM runtime: ASF hardware transactions plus a
// *concurrent* software fallback, replacing ASF-TM's serial-irrevocable
// token as the overflow path. It implements the same tm ABI as
// internal/asftm and internal/stm, so every workload runs on it unchanged.
//
// The design follows the NOrec-style hybrids (Dalessandro et al., Hybrid
// NOrec; Riegel et al.) adapted to this simulator's ASF model:
//
//   - a shared commit-sequence word (swSeq, a seqlock: odd = a software
//     writeback or a serial transaction is in flight). Every hardware
//     region's first speculative read subscribes to it, so a committing
//     software transaction aborts exactly the hardware transactions it
//     races with — and only during its (short) writeback window, not for
//     its whole duration as the serial token did;
//   - a hardware-commit counter (hwSeq, its own cache line) that hardware
//     *writer* transactions increment with their last speculative store.
//     Software transactions sample both words and re-validate their read
//     set by value whenever either moves (NOrec's value-based validation),
//     so an atomically-committed hardware write set can never tear a
//     software snapshot. The bump is elided while no software transaction
//     exists: a fallback-population count (swCount) shares the seqlock's
//     cache line — covered by the same subscription, so a software
//     transaction's arrival aborts (and thereby re-arms) the hardware
//     regions that decided to skip it — and hardware writers conflict on
//     hwSeq only while there is someone to notify;
//   - the software fallback: an LSA-style invisible-read descriptor with a
//     redo log. Reads are plain loads (the simulator's requester-wins
//     conflict detection gives strong isolation against in-flight hardware
//     writers); writes buffer in the redo log and publish at commit under
//     the seqlock, after value validation. Software transactions run
//     concurrently with each other and with hardware transactions;
//   - true serial-irrevocable mode survives only for the cases that need
//     it — malloc-unsafe operations and syscalls reached through
//     BecomeIrrevocable — implemented as a degenerate software commit that
//     holds the seqlock for the whole transaction.
//
// Mode selection: capacity overflows fall back to software immediately
// (the working set will never fit); contention retries in hardware with
// back-off up to maxHWAttempts, then falls back to software; the software
// path escalates to serial only on an explicit irrevocability request or
// as a livelock safety valve after maxSWAttempts.
package hytm

import (
	"asfstack/internal/asf"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Contention management and ABI costs for both paths.
const (
	// maxHWAttempts is how many hardware attempts are made before a
	// transaction falls back to the concurrent software path. Capacity
	// overflows fall back immediately.
	maxHWAttempts = 16
	// maxSWAttempts is the livelock safety valve: software attempts before
	// the transaction escalates to serial-irrevocable mode. Software
	// conflicts are value-based and a failed validation means someone else
	// committed, so in practice this bound is never reached.
	maxSWAttempts = 1024
	// backoffBase and backoffMax bound the exponential back-off (cycles),
	// which doubles at most backoffShift times.
	backoffBase  = 64
	backoffMax   = 1 << 14
	backoffShift = 8

	// Hardware-path ABI costs, in instructions (as ASF-TM's).
	beginInstr   = 60
	commitInstr  = 16
	barrierInstr = 2

	// Software-path lengths, in instructions (beyond the memory traffic,
	// which is charged by the cache model). The redo-log write barrier is
	// cheaper than TinySTM's encounter-time locking (no CAS), the read
	// barrier pays the two seqlock sample loads instead of lock checks.
	swBeginInstr             = 50
	swCommitInstr            = 30
	swReadInstr              = 20
	swWriteInstr             = 25
	swValidateInstrPerEntry  = 4
	swWritebackInstrPerEntry = 4
)

// Runtime implements tm.Runtime as a hardware/software hybrid.
type Runtime struct {
	// ForceSW routes every transaction straight to the concurrent software
	// fallback, skipping the hardware attempts. Litmus conformance runs use
	// it to exercise the fallback's isolation behaviour directly — the
	// suite's transactions are far too small to overflow an LLB naturally.
	// Set it before the first transaction.
	ForceSW bool

	sys  *asf.System
	heap *tm.Heap
	name string

	swSeq   mem.Addr // commit-sequence seqlock
	swCount mem.Addr // live software-fallback transactions (same line as swSeq)
	hwSeq   mem.Addr // hardware-commit counter, alone on its cache line

	txs []hyTx

	tm.Lifecycle

	met rtMetrics
}

// rtMetrics holds the runtime's metric handles (zero-value inert).
type rtMetrics struct {
	// hwAttempts is the number of hardware attempts each transaction made
	// before resolving (committing in hardware or falling back).
	hwAttempts metrics.Histogram
	// swAttempts is the number of software attempts each fallback
	// transaction made before committing.
	swAttempts metrics.Histogram
	// backoff records each contention back-off delay, in cycles.
	backoff metrics.Histogram
	// hwCommits/swCommits split the commit count by path; serialEntries
	// counts entries into true serial-irrevocable mode.
	hwCommits metrics.Counter
	swCommits metrics.Counter
	// seqAborts counts hardware aborts induced by the commit-sequence
	// seqlock (waits at begin plus in-flight kills by software commits).
	seqAborts metrics.Counter
	// swCycles accumulates simulated cycles spent resident in the software
	// fallback (from fallback entry to commit or serial escalation);
	// serialCycles accumulates cycles the seqlock was held for serial mode.
	swCycles      metrics.Counter
	serialEntries metrics.Counter
	serialCycles  metrics.Counter
}

// SetMetrics registers the runtime's instruments with reg. Must be called
// before the first transaction (stack construction does this).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met.hwAttempts = reg.Histogram("hytm/hw_attempts", metrics.PowersOfTwo(6))
	r.met.swAttempts = reg.Histogram("hytm/sw_attempts", metrics.PowersOfTwo(8))
	r.met.backoff = reg.Histogram("hytm/backoff_cycles", metrics.PowersOfTwo(16))
	r.met.hwCommits = reg.Counter("hytm/hw_commits")
	r.met.swCommits = reg.Counter("hytm/sw_commits")
	r.met.seqAborts = reg.Counter("hytm/seqlock_aborts")
	r.met.swCycles = reg.Counter("hytm/sw_cycles")
	r.met.serialEntries = reg.Counter("hytm/serial_entries")
	r.met.serialCycles = reg.Counter("hytm/serial_cycles")
}

// New builds the hybrid runtime for an installed ASF system. layout
// provides the runtime's metadata region (the two sequence words, each on
// its own line, plus per-core software logs) and name is the figure label
// ("HyTM-8", "HyTM-256").
func New(sys *asf.System, heap *tm.Heap, m *sim.Machine, layout *mem.Layout, name string) *Runtime {
	base, _ := layout.Region(2 * mem.LineSize)
	m.Mem.Prefault(base, 2*mem.LineSize)
	cores := m.Config().Cores
	r := &Runtime{
		sys:       sys,
		heap:      heap,
		name:      name,
		swSeq:     base,
		swCount:   base + mem.WordSize,
		hwSeq:     base + mem.LineSize,
		txs:       make([]hyTx, cores),
		Lifecycle: tm.NewLifecycle(cores),
	}
	for i := range r.txs {
		r.txs[i] = hyTx{
			r:      r,
			c:      m.CPU(i),
			u:      sys.Unit(i),
			windex: make(map[mem.Addr]int),
			log:    tm.NewLogSpace(m.Mem, layout),
		}
	}
	return r
}

// Name implements tm.Runtime.
func (r *Runtime) Name() string { return r.name }

// ResetStats implements tm.Runtime: the outcome counters and the ASF
// units' own.
func (r *Runtime) ResetStats() {
	r.StatsTable.ResetStats()
	for i := range r.StatsTable {
		r.sys.Unit(i).ResetStats()
	}
}

// Atomic implements tm.Runtime: hardware attempts with the seqlock
// subscription, then the concurrent software fallback, then (explicit
// request or livelock valve only) serial-irrevocable mode.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	first := tm.PathHW
	if r.ForceSW {
		first = tm.PathSW
	}
	r.Run(c, &r.txs[c.ID()], first, body)
}

// Enter implements tm.Paths: entering the software path announces the
// fallback, so hardware writers start bumping hwSeq, and the write probe
// aborts any in-flight region that read a zero count. The transaction
// leaves the population after its final commit (Committed).
func (t *hyTx) Enter(p tm.TxPath) {
	if p == tm.PathSW {
		t.swEntry = t.c.Now()
		t.c.FetchAdd(t.r.swCount, 1)
		t.announced = true
	}
}

// Attempt implements tm.Paths: one ASF region subscribed to the seqlock,
// one software attempt, or the serial transaction.
func (t *hyTx) Attempt(p tm.TxPath, body func(tm.Tx)) bool {
	c, u, r := t.c, t.u, t.r
	switch p {
	case tm.PathSerial:
		r.runSerial(c, t, body)
		return true
	case tm.PathSW:
		t.swBegin()
		tm.RunBody(c, t, body)
		t.swCommit()
		r.NotifyCommit(c, false)
		return true
	}
	c.Exec(beginInstr)
	t.wrote = false
	t.reason, t.code = u.Region(func() {
		// Subscribe: the commit-sequence word is the first
		// speculative read of every region. Odd means a software
		// writeback (or serial transaction) is in flight — we must
		// not read around it; and any later acquisition's CAS write
		// aborts us instantly.
		if u.Load(r.swSeq)&1 != 0 {
			u.Abort(tm.CodeSeqLocked)
		}
		// Same subscribed line: if a software transaction arrives
		// after this load, its population increment aborts us, so a
		// false answer stays true for the whole region.
		t.swPresent = u.Load(r.swCount) != 0
		tm.RunBody(c, t, body)
		if t.wrote && t.swPresent {
			// Publish the commit to the concurrent software
			// transactions: their value validation re-arms when
			// the counter moves. Last store of the region, so the
			// conflict window on the counter line is one commit.
			u.Store(r.hwSeq, u.Load(r.hwSeq)+1)
		}
		c.Exec(commitInstr)
	})
	if t.reason != sim.AbortNone {
		return false
	}
	r.NotifyCommit(c, false)
	return true
}

// Aborted implements tm.Paths. A software attempt's redo log is simply
// discarded — nothing was published, so there is no undo.
func (t *hyTx) Aborted(p tm.TxPath, ev tm.TxEvent) tm.TxEvent {
	if p == tm.PathSW {
		ev.STM, ev.Reads, ev.Writes = true, uint32(len(t.reads)), uint32(len(t.writes))
		return ev
	}
	read, write := t.u.LastSetSizes()
	ev.Cause, ev.Code, ev.Reads, ev.Writes = t.reason, t.code, uint32(read), uint32(write)
	ev.Aborter, ev.Addr = t.u.LastAbortEdge()
	return ev
}

// Retry implements tm.Paths. Hardware: capacity overflows fall back to
// software at once, contention backs off, a held seqlock is waited out,
// an irrevocability request goes serial, and maxHWAttempts falls back to
// software. Software: an irrevocability request or maxSWAttempts
// escalates to serial, anything else backs off.
func (t *hyTx) Retry(p tm.TxPath, n int) tm.TxPath {
	c, r := t.c, t.r
	id := c.ID()
	st := &r.StatsTable[id]
	if p == tm.PathSW {
		force := t.forceSerial
		t.forceSerial = false
		t.swReset()
		if force || n >= maxSWAttempts {
			r.met.swAttempts.Observe(id, uint64(n))
			r.met.swCycles.Add(id, c.Now()-t.swEntry)
			return tm.PathSerial
		}
		r.met.backoff.Observe(id, tm.Backoff(c, n, backoffBase, backoffShift, backoffMax))
		return p
	}
	fallback := false
	switch t.reason {
	case sim.AbortCapacity:
		// The working set does not fit: go software, concurrently.
		st.Aborts[sim.AbortCapacity]++
		fallback = true
	case sim.AbortExplicit:
		switch t.code {
		case tm.CodeMallocRefill:
			st.MallocAborts++
			st.Aborts[sim.AbortExplicit]++
			r.heap.Refill(c, tm.ChunkSize)
		case tm.CodeSeqLocked:
			st.Aborts[sim.AbortContention]++
			st.SeqAborts++
			r.met.seqAborts.Inc(id)
			r.waitSeqEven(c)
		case tm.CodeSerialRequest:
			st.Aborts[sim.AbortExplicit]++
			r.met.hwAttempts.Observe(id, uint64(n))
			return tm.PathSerial
		default:
			st.Aborts[sim.AbortExplicit]++
		}
	case sim.AbortContention:
		st.Aborts[sim.AbortContention]++
		r.met.backoff.Observe(id, tm.Backoff(c, n, backoffBase, backoffShift, backoffMax))
	default:
		// Page fault (now handled), interrupt, syscall: retry.
		st.Aborts[t.reason]++
	}
	if fallback || n >= maxHWAttempts {
		r.met.hwAttempts.Observe(id, uint64(n))
		return tm.PathSW
	}
	return p
}

// Committed implements tm.Paths. A transaction that entered the software
// path leaves the fallback population here, under CatNonInstr, whichever
// path it committed on.
func (t *hyTx) Committed(p tm.TxPath, n int, ev tm.TxEvent) tm.TxEvent {
	c, r := t.c, t.r
	id := c.ID()
	switch p {
	case tm.PathHW:
		r.met.hwCommits.Inc(id)
		r.met.hwAttempts.Observe(id, uint64(n))
		read, write := t.u.LastSetSizes()
		ev.Reads, ev.Writes = uint32(read), uint32(write)
	case tm.PathSW:
		r.StatsTable[id].SWCommits++
		r.met.swCommits.Inc(id)
		r.met.swAttempts.Observe(id, uint64(n))
		r.met.swCycles.Add(id, c.Now()-t.swEntry)
		ev.Reads, ev.Writes = uint32(len(t.reads)), uint32(len(t.writes))
		t.swReset()
	}
	if t.announced {
		t.announced = false
		c.FetchAdd(r.swCount, ^mem.Word(0))
	}
	return ev
}

// waitSeqEven polls the commit-sequence word with plain reads (they do not
// conflict) until the in-flight software writeback or serial transaction
// releases it.
func (r *Runtime) waitSeqEven(c *sim.CPU) {
	for c.Load(r.swSeq)&1 != 0 {
		c.Cycles(200)
	}
}

// lockSeq takes the seqlock from its even value s with one CAS and reports
// whether it did. It counts the subscribed hardware regions the
// acquisition kills (seqlock-induced aborts, attributed here: the victims
// observe an indistinguishable contention abort).
func (r *Runtime) lockSeq(c *sim.CPU, s mem.Word) bool {
	killed := uint64(r.sys.Monitors(c, r.swSeq))
	if _, ok := c.CAS(r.swSeq, s, s+1); !ok {
		return false
	}
	r.StatsTable[c.ID()].SeqAborts += killed
	r.met.seqAborts.Add(c.ID(), killed)
	return true
}

// runSerial executes body in serial-irrevocable mode: a degenerate
// software commit that holds the seqlock for the whole transaction. The
// acquisition aborts every subscribed hardware region; concurrent software
// transactions stall at their next validation until release, then
// re-validate by value against the serial transaction's in-place writes.
func (r *Runtime) runSerial(c *sim.CPU, t *hyTx, body func(tx tm.Tx)) {
	id := c.ID()
	seq := c.Load(r.swSeq)
	for seq&1 != 0 || !r.lockSeq(c, seq) {
		c.Cycles(uint64(c.Rand().Int63n(400)) + 100)
		seq = c.Load(r.swSeq)
	}
	r.met.serialEntries.Inc(id)
	held := c.Now()
	tm.RunBody(c, t, body)
	r.NotifyCommit(c, true) // before the release: the seqlock is the commit point
	c.Store(r.swSeq, seq+2)
	r.met.serialCycles.Add(id, c.Now()-held)
}

// --- transaction descriptor ------------------------------------------------

type swRead struct {
	addr mem.Addr
	val  mem.Word
}

type swWrite struct {
	addr mem.Addr
	val  mem.Word
}

// hyTx implements tm.Tx for all three code paths — hardware, concurrent
// software, serial — dispatched on the attempt's path (tm.Frame.Path),
// like the begin function's return value selects the compiled code path
// (§3.1). A software abort blames no
// core: NOrec value validation cannot identify the aborter.
type hyTx struct {
	tm.Frame
	r *Runtime
	c *sim.CPU
	u *asf.Unit
	// wrote marks a hardware transaction that performed a transactional
	// store; swPresent records whether software transactions existed at
	// region begin (together they decide the hwSeq bump at commit).
	wrote, swPresent bool
	// reason and code are the last hardware attempt's abort.
	reason sim.AbortReason
	code   uint64
	// forceSerial carries a BecomeIrrevocable request out of the software
	// path's abort unwind.
	forceSerial bool
	// announced marks a transaction counted in swCount since swEntry, the
	// cycle it entered the software path.
	announced bool
	swEntry   uint64

	// Software descriptor: NOrec-style value-logged reads and a redo log
	// with an index for read-own-write.
	swSnap, hwSnap mem.Word
	reads          []swRead
	writes         []swWrite
	windex         map[mem.Addr]int
	log            tm.LogSpace
}

// swBegin samples a consistent (even) seqlock snapshot.
func (t *hyTx) swBegin() {
	c := t.c
	c.Exec(swBeginInstr)
	for {
		s := c.Load(t.r.swSeq)
		if s&1 == 0 {
			t.swSnap = s
			break
		}
		c.Cycles(200)
	}
	t.hwSnap = c.Load(t.r.hwSeq)
}

// swRevalidate re-establishes a consistent snapshot: wait out any
// writeback, validate every read by value, and move the snapshot forward.
// Aborts (software longjmp) on a changed value.
func (t *hyTx) swRevalidate() {
	c := t.c
	for {
		s := c.Load(t.r.swSeq)
		if s&1 != 0 {
			c.Cycles(200)
			continue
		}
		h := c.Load(t.r.hwSeq)
		for i := range t.reads {
			e := &t.reads[i]
			c.Exec(swValidateInstrPerEntry)
			if c.Load(e.addr) != e.val {
				t.Abandon(t.c, sim.NoCore, e.addr)
			}
		}
		if c.Load(t.r.swSeq) == s {
			t.swSnap, t.hwSnap = s, h
			return
		}
	}
}

// swLoad is the NOrec read barrier: read-own-write from the redo log, else
// a plain load bracketed by the two sequence samples, re-validating when
// either moved since the snapshot.
func (t *hyTx) swLoad(a mem.Addr) mem.Word {
	c := t.c
	c.Exec(swReadInstr)
	if i, ok := t.windex[a]; ok {
		return t.writes[i].val
	}
	v := c.Load(a)
	for {
		if c.Load(t.r.swSeq) == t.swSnap && c.Load(t.r.hwSeq) == t.hwSnap {
			break
		}
		t.swRevalidate()
		v = c.Load(a)
	}
	// Append to the read log (one simulated store).
	c.Store(t.log.ReadSlot(len(t.reads), mem.WordSize), mem.Word(a))
	t.reads = append(t.reads, swRead{addr: a, val: v})
	return v
}

// swStore buffers the write in the redo log; nothing is published until
// commit, so concurrent readers never see speculative software state.
func (t *hyTx) swStore(a mem.Addr, v mem.Word) {
	c := t.c
	c.Exec(swWriteInstr)
	if i, ok := t.windex[a]; ok {
		t.writes[i].val = v
		c.Store(t.log.WriteSlot(i, 2*mem.WordSize)+mem.WordSize, v)
		return
	}
	// Redo-log append: address + value (two simulated stores).
	i := len(t.writes)
	slot := t.log.WriteSlot(i, 2*mem.WordSize)
	c.Store(slot, mem.Word(a))
	c.Store(slot+mem.WordSize, v)
	t.windex[a] = i
	t.writes = append(t.writes, swWrite{addr: a, val: v})
}

// swCommit publishes the redo log under the seqlock. Read-only
// transactions commit at their (validated) snapshot without touching it.
func (t *hyTx) swCommit() {
	c := t.c
	r := t.r
	c.Exec(swCommitInstr)
	if len(t.writes) == 0 {
		if c.Load(r.swSeq) != t.swSnap || c.Load(r.hwSeq) != t.hwSnap {
			t.swRevalidate()
		}
		return
	}
	for {
		if c.Load(r.swSeq) != t.swSnap {
			// Someone committed since the snapshot: re-validate (and
			// move the snapshot up) before trying to acquire.
			t.swRevalidate()
			continue
		}
		if r.lockSeq(c, t.swSnap) {
			break
		}
		c.Cycles(uint64(c.Rand().Int63n(200)) + 50)
	}
	// Seqlock held (odd). The acquisition CAS itself validated that no
	// software commit intervened; a hardware commit still might have.
	if c.Load(r.hwSeq) != t.hwSnap {
		for i := range t.reads {
			e := &t.reads[i]
			c.Exec(swValidateInstrPerEntry)
			if c.Load(e.addr) != e.val {
				c.Store(r.swSeq, t.swSnap+2) // release before unwinding
				t.Abandon(t.c, sim.NoCore, e.addr)
			}
		}
	}
	for i := range t.writes {
		w := &t.writes[i]
		c.Exec(swWritebackInstrPerEntry)
		c.Store(w.addr, w.val)
	}
	c.Store(r.swSeq, t.swSnap+2)
}

func (t *hyTx) swReset() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	clear(t.windex)
}

// --- tm.Tx -----------------------------------------------------------------

// Load implements tm.Tx.
func (t *hyTx) Load(a mem.Addr) mem.Word {
	prev := t.c.SetCategory(sim.CatTxLoadStore)
	var v mem.Word
	switch t.Path() {
	case tm.PathHW:
		t.c.Exec(barrierInstr)
		v = t.u.Load(a)
	case tm.PathSW:
		v = t.swLoad(a)
	default: // serial: plain accesses behind the seqlock
		t.c.Exec(2)
		v = t.c.Load(a)
	}
	t.c.SetCategory(prev)
	return v
}

// Store implements tm.Tx.
func (t *hyTx) Store(a mem.Addr, v mem.Word) {
	prev := t.c.SetCategory(sim.CatTxLoadStore)
	switch t.Path() {
	case tm.PathHW:
		t.c.Exec(barrierInstr)
		t.u.Store(a, v)
		t.wrote = true
	case tm.PathSW:
		t.swStore(a, v)
	default:
		t.c.Exec(2)
		t.c.Store(a, v)
	}
	t.c.SetCategory(prev)
}

// Alloc implements tm.Tx.
func (t *hyTx) Alloc(size uint64) mem.Addr { return t.alloc(size, mem.WordSize) }

// AllocLines implements tm.Tx.
func (t *hyTx) AllocLines(n int) mem.Addr {
	return t.alloc(uint64(n)*mem.LineSize, mem.LineSize)
}

// alloc is pool allocation. The software and serial paths refill inline
// (no speculative region is at risk); the hardware path aborts to refill
// outside the region (§3.3).
func (t *hyTx) alloc(size, align uint64) mem.Addr {
	if t.Path() != tm.PathHW {
		return t.r.heap.Alloc(t.c, size, align)
	}
	a, ok := t.r.heap.AllocFast(t.c, size, align)
	if !ok {
		t.u.Abort(tm.CodeMallocRefill)
	}
	return a
}

// Free implements tm.Tx.
func (t *hyTx) Free(a mem.Addr) { t.r.heap.Free(t.c, a) }

// CPU implements tm.Tx.
func (t *hyTx) CPU() *sim.CPU { return t.c }

// BecomeIrrevocable implements tm.Irrevocably: a hardware transaction
// aborts with a software code and restarts directly in serial mode; a
// software transaction unwinds and escalates; a serial transaction already
// is irrevocable.
func (t *hyTx) BecomeIrrevocable() {
	switch t.Path() {
	case tm.PathHW:
		t.u.Abort(tm.CodeSerialRequest)
	case tm.PathSW:
		t.forceSerial = true
		t.Abandon(t.c, sim.NoCore, sim.NoAddr)
	}
}

// Release exposes ASF early release on the hardware path (the linked-list
// workload's hand-over-hand traversal); the software and serial paths have
// no monitored read set to trim, so it is a no-op there.
func (t *hyTx) Release(a mem.Addr) {
	if t.Path() == tm.PathHW {
		t.u.Release(a)
	}
}

// Tx is the exported name of the runtime's transaction descriptor.
type Tx = hyTx
