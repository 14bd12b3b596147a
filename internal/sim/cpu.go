package sim

import (
	"fmt"
	"math/rand"

	"asfstack/internal/mem"
	"asfstack/internal/slab"
)

// SpecUnit is the per-core speculative-execution facility the simulator
// interacts with. Package asf provides the implementation; the simulator
// only needs to know whether a region is active (OS events must abort it)
// and how to abort it asynchronously.
type SpecUnit interface {
	// Active reports whether a speculative region is in flight.
	Active() bool
	// AsyncAbort rolls the region back immediately (restoring memory) and
	// arranges for the core to observe the abort at its next operation.
	// Called either by other cores (conflict, requester-wins) or by the
	// core's own OS events.
	AsyncAbort(reason AbortReason)
}

// CPU is one simulated core: the handle workload and runtime code issue
// operations through. All operations charge simulated cycles; memory
// operations additionally rendezvous with the engine so cross-core effects
// are globally ordered.
type CPU struct {
	id int
	m  *Machine

	// Scheduling. yield suspends this core's coroutine back to the Run
	// driver, which resumes whichever core was granted the turn.
	// leaseKey bounds the core's run-ahead: it may keep the turn while
	// its own packed (clock<<coreBits|id) key stays below it (see sim.go).
	yield     func(struct{}) bool
	leaseKey  uint64
	holding   bool
	checkedIn bool
	running   bool
	everRan   bool

	// Time.
	now       uint64
	pending   uint64 // batched compute cycles not yet folded into now
	instLeft  int    // sub-issue-width instruction remainder
	nextTimer uint64

	// Speculation. pendingBy/pendingAddr carry the causality edge of a
	// posted abort (aborter core and conflicting line) for the flight
	// recorder; NoCore/NoAddr when unknown.
	spec         SpecUnit
	pendingAbort AbortReason
	pendingBy    int
	pendingAddr  mem.Addr

	// abortErr is the scratch AbortError reused by every abort panic on
	// this core. Safe because the recovery handler (asf.Region) copies the
	// fields out before doing anything that could abort again, and each
	// core's panics unwind on the goroutine currently running that core.
	// Reusing it keeps abort delivery allocation-free.
	abortErr AbortError

	// presentPage is the page of this core's most recent access that was
	// known present. Presence is monotonic (pages are installed, never
	// evicted), so a match lets beforeAccess skip the Memory lookup.
	// Initialised to an unaligned sentinel that no page address equals.
	presentPage mem.Addr

	// Accounting.
	cat      Category
	counters [NumCategories]uint64

	// Tracing (see trace.go).
	tracing bool
	trace   []TraceEvent

	rng *rand.Rand

	// jrng drives schedule-noise stalls (Config.SchedNoise); nil when
	// exploration is off, so the hot path pays one pointer test.
	jrng *rand.Rand
	jmax int64
}

// rands holds the generators of released machines' cores, each 4.9 KB of
// source state.
var rands slab.List[*rand.Rand]

// newRand returns a generator seeded with seed: a released core's when
// one is free, reseeded. Seed sets a source's whole state, so the reused
// generator draws exactly what rand.New(rand.NewSource(seed)) would.
func newRand(seed int64) *rand.Rand {
	if r, ok := rands.Get(0); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

func newCPU(m *Machine, id int) *CPU {
	c := &CPU{
		id:          id,
		m:           m,
		presentPage: ^mem.Addr(0), // unaligned: matches no page
		rng:         newRand(m.cfg.Seed*7919 + int64(id)*104729 + 1),
	}
	if m.cfg.SchedNoise > 0 {
		// A stream separate from rng: exploration must not perturb the
		// workload's own random choices, only the schedule.
		c.jrng = newRand(m.cfg.Seed*31607 + int64(id)*15485863 + 7)
		c.jmax = int64(m.cfg.SchedNoise) + 1
	}
	if m.cfg.TimerInterval > 0 {
		c.nextTimer = m.cfg.TimerInterval
	}
	return c
}

// key packs the core's (clock, id) scheduling priority into one word.
func (c *CPU) key() uint64 { return c.now<<coreBits | uint64(c.id) }

// ID returns the core number.
func (c *CPU) ID() int { return c.id }

// Now returns the core's local cycle clock (including batched compute).
func (c *CPU) Now() uint64 { return c.now + c.pending }

// Rand returns the core's deterministic PRNG.
func (c *CPU) Rand() *rand.Rand { return c.rng }

// SetSpecUnit installs the core's speculative unit (done once at setup).
func (c *CPU) SetSpecUnit(u SpecUnit) { c.spec = u }

// --- turn rendezvous -----------------------------------------------------

// acquire obtains the global turn. On return the core may touch all shared
// simulator state until it finishes the current operation.
//
// The caller has already folded batched compute into the clock
// (flushCycles), so c.key() here is exactly the priority the old central
// engine would have scanned when this core posted its wait event. holding
// is only ever true on entry when an abort panic unwound past endOp — that
// operation deliberately keeps the turn through the next operation.
func (c *CPU) acquire() {
	c.everRan = true
	if c.holding {
		return
	}
	m := c.m
	if !c.checkedIn {
		// First yield of this Run: push our key and park; the driver
		// sweeps every core to this point before granting the minimum.
		c.checkedIn = true
		m.heapPush(c.key())
		c.park()
		c.holding = true
		return
	}
	// The turn is still logically here (hand-off only happens below; no
	// other core has run since our last grant, so the waiting set — and
	// with it the lease — is unchanged). Run-ahead fast path: if our key
	// is still below every waiting core's, the engine would re-pick us
	// anyway; keep the turn with no synchronization at all.
	if c.key() < c.leaseKey {
		c.holding = true
		return
	}
	// Lease expired: join the waiting set, grant the new earliest core,
	// and suspend until the turn rotates back.
	next := m.heapPushPop(c.key())
	if next&coreMask == uint64(c.id) {
		// Defensive: the lease expired, so our key is >= the heap top and
		// the fused push-pop cannot hand our own key back — but renewing
		// the lease is harmless.
		if len(m.heap) > 0 {
			c.leaseKey = m.heap[0]
		} else {
			c.leaseKey = leaseFree
		}
		c.holding = true
		return
	}
	m.grant(next)
	c.park()
	c.holding = true
}

// errRunStopped unwinds a parked coroutine whose Run driver tore down early
// (defensive; never on the normal path, where every body runs to completion).
var errRunStopped = fmt.Errorf("sim: Run stopped")

// park suspends the core's coroutine; the driver resumes the granted core.
func (c *CPU) park() {
	if !c.yield(struct{}{}) {
		panic(errRunStopped)
	}
}

// endOp relinquishes the turn logically. The token stays with the core; the
// next acquire decides — against the clock with compute folded in — whether
// the run-ahead lease still holds or the token must be handed off. No shared
// state may be touched between endOp and the next acquire.
func (c *CPU) endOp() {
	c.holding = false
}

// runBody executes one Run's thread body on the core's coroutine and
// performs finish bookkeeping: the finishing core takes its turn like any
// other yield (so the waiting-set minimum stays well defined), retires
// itself, and passes the token on — or signals Run when it was the last.
func (c *CPU) runBody(body func(*CPU)) {
	defer c.finish()
	body(c)
}

func (c *CPU) finish() {
	r := recover()
	c.holding = false
	c.running = false
	if r == errRunStopped {
		// Defensive teardown by the Run driver: no bookkeeping, the
		// machine is being abandoned.
		return
	}
	c.flushCycles()
	m := c.m
	if r != nil && m.failure == nil {
		m.failure = fmt.Sprintf("core %d: %v", c.id, r)
	}
	m.runnable--
	// A body that performed no globally ordered operation (or died before
	// its first) retires during the startup sweep, before the first grant:
	// it touched no shared state, so it never needs a turn. Otherwise the
	// turn is here — either the lease kept it, or it was never handed off
	// after the last endOp — and retiring passes it to the earliest waiter.
	if m.collecting || m.runnable == 0 {
		return
	}
	m.grant(m.heapPop())
}

// flushCycles folds batched compute into the clock. With schedule noise
// enabled (Config.SchedNoise) it also folds in a deterministic pseudo-random
// stall, perturbing the (clock, id) priority this core rendezvouses with and
// thereby the global interleaving.
func (c *CPU) flushCycles() {
	if c.jrng != nil {
		c.pending += uint64(c.jrng.Int63n(c.jmax))
	}
	c.charge(c.pending)
	c.pending = 0
}

// charge advances the clock and attributes the cycles to the current
// accounting category.
func (c *CPU) charge(cy uint64) {
	c.now += cy
	c.counters[c.cat] += cy
}

// --- compute -----------------------------------------------------------

// Exec charges n machine instructions of straight-line compute, packed at
// the configured issue width. Purely local: no rendezvous.
func (c *CPU) Exec(n int) {
	c.instLeft += n
	w := c.m.cfg.IssueWidth
	c.pending += uint64(c.instLeft / w)
	c.instLeft %= w
}

// Cycles charges raw stall cycles (back-off spins, fixed hardware costs).
func (c *CPU) Cycles(n uint64) { c.pending += n }

// --- OS events ----------------------------------------------------------

// checkOSEvents delivers any timer interrupt that became due. Must be
// called holding the turn. Aborts an active speculative region: all
// privilege-level switches abort ASF regions (§2.2). Small enough to
// inline; the uncommon work lives in deliverTimers.
func (c *CPU) checkOSEvents() {
	if c.nextTimer != 0 && c.now >= c.nextTimer {
		c.deliverTimers()
	}
	if c.pendingAbort != AbortNone {
		c.deliverPendingAbort()
	}
}

// deliverTimers raises every timer interrupt that became due. nextTimer is
// nonzero exactly when Config.TimerInterval is (newCPU, SyncClocks).
func (c *CPU) deliverTimers() {
	for c.now >= c.nextTimer {
		c.nextTimer += c.m.cfg.TimerInterval
		c.charge(c.m.cfg.InterruptCost)
		c.m.Hier.FlushTLB(c.id)
		if c.spec != nil && c.spec.Active() {
			c.spec.AsyncAbort(AbortInterrupt)
		}
	}
}

// deliverPendingAbort raises any abort posted asynchronously (conflict from
// another core, interrupt) as a panic that unwinds to the region's retry
// point, mirroring ASF's rollback to the instruction after SPECULATE.
// The panic deliberately unwinds with the global turn still held: the
// recovery handler (asf.Region) completes rollback against shared state,
// and the turn is released at the end of the next operation.
func (c *CPU) deliverPendingAbort() {
	if c.pendingAbort != AbortNone {
		r, by, addr := c.pendingAbort, c.pendingBy, c.pendingAddr
		c.pendingAbort = AbortNone
		c.pendingBy, c.pendingAddr = NoCore, NoAddr
		c.abortPanic(r, 0, by, addr)
	}
}

// AbortPending reports whether an asynchronous abort awaits delivery.
// Hook code uses this to ignore the tail of an operation whose region was
// rolled back mid-flight.
func (c *CPU) AbortPending() bool { return c.pendingAbort != AbortNone }

// PostAbortFrom records an abort to be delivered at the core's next
// operation, with its causality edge: by is the core whose access killed
// this region and addr the conflicting cache line (NoCore/NoAddr when
// unknown). The edge is observability-only. Called by SpecUnit
// implementations (with the posting core holding the global turn).
func (c *CPU) PostAbortFrom(r AbortReason, by int, addr mem.Addr) {
	c.pendingAbort = r
	c.pendingBy = by
	c.pendingAddr = addr
}

// abortPanic fills the core's scratch AbortError and unwinds with it.
// All abort panics funnel through here so delivery never allocates.
func (c *CPU) abortPanic(r AbortReason, code uint64, by int, addr mem.Addr) {
	c.abortErr = AbortError{Core: c.id, Reason: r, Code: code, By: by, Addr: addr}
	panic(&c.abortErr)
}

// RaiseAbort aborts the current core immediately: used for synchronous
// conditions (capacity overflow, explicit ABORT, colocation exception)
// detected while executing one of the core's own operations.
func (c *CPU) RaiseAbort(r AbortReason, code uint64) {
	c.abortPanic(r, code, NoCore, NoAddr)
}

// RaiseAbortAt is RaiseAbort carrying the cache line the condition was
// detected on (capacity displacement victims), for the flight recorder.
func (c *CPU) RaiseAbortAt(r AbortReason, code uint64, addr mem.Addr) {
	c.abortPanic(r, code, NoCore, addr)
}

// Syscall models entering the kernel for cost extra cycles. System calls
// abort speculative regions (§2.2).
func (c *CPU) Syscall(cost uint64) {
	c.flushCycles()
	c.acquire()
	c.checkOSEvents()
	c.charge(c.m.cfg.SyscallCost + cost)
	if c.spec != nil && c.spec.Active() {
		c.spec.AsyncAbort(AbortSyscall)
		c.deliverPendingAbort()
	}
	c.endOp()
}

// --- memory -------------------------------------------------------------

// Load performs a plain (non-speculative) load.
func (c *CPU) Load(a mem.Addr) mem.Word { return c.access(a, 0) }

// Store performs a plain (non-speculative) store.
func (c *CPU) Store(a mem.Addr, v mem.Word) { c.accessStore(a, v, FWrite) }

// LoadLocked performs a LOCK MOV load: the line joins the speculative
// region's read set. Only the ASF runtime issues these.
func (c *CPU) LoadLocked(a mem.Addr) mem.Word { return c.access(a, FLocked) }

// StoreLocked performs a LOCK MOV store: the line joins the region's write
// set and is versioned for rollback.
func (c *CPU) StoreLocked(a mem.Addr, v mem.Word) { c.accessStore(a, v, FWrite|FLocked) }

// Watch monitors the line containing a without transferring data to the
// program: WATCHR (write=false) or WATCHW (write=true).
func (c *CPU) Watch(a mem.Addr, write bool) {
	f := FLocked | FWatch
	if write {
		f |= FWrite
	}
	if write {
		c.accessStore(a, 0, f) // FWatch: no data is written
	} else {
		c.access(a, f)
	}
}

// CAS is an atomic compare-and-swap on the word at a. Returns the previous
// value and whether the swap happened. Counts as a store for coherence and
// speculation purposes (x86 CMPXCHG always issues a write probe).
func (c *CPU) CAS(a mem.Addr, old, new mem.Word) (prev mem.Word, ok bool) {
	c.flushCycles()
	c.acquire()
	c.checkOSEvents()
	c.beforeAccess(a)
	if c.m.hook != nil {
		c.m.hook(c, a, FWrite|FAtomic|FPre)
	}
	res := c.m.Hier.Access(c.id, a, true)
	c.charge(res.Cycles + 4) // locked RMW overhead
	if c.m.hook != nil {
		c.m.hook(c, a, FWrite|FAtomic)
	}
	prev = c.m.Mem.Load(a)
	if prev == old {
		c.m.Mem.Store(a, new)
		ok = true
	}
	c.endOp()
	return prev, ok
}

// FetchAdd atomically adds delta to the word at a, returning the old value.
func (c *CPU) FetchAdd(a mem.Addr, delta mem.Word) mem.Word {
	c.flushCycles()
	c.acquire()
	c.checkOSEvents()
	c.beforeAccess(a)
	if c.m.hook != nil {
		c.m.hook(c, a, FWrite|FAtomic|FPre)
	}
	res := c.m.Hier.Access(c.id, a, true)
	c.charge(res.Cycles + 4)
	if c.m.hook != nil {
		c.m.hook(c, a, FWrite|FAtomic)
	}
	old := c.m.Mem.Load(a)
	c.m.Mem.Store(a, old+delta)
	c.endOp()
	return old
}

// IdleHint announces a quiescent state: the core is in a long
// non-transactional wait (a barrier spin, a thread exit) and will start no
// transaction before its next runtime entry point. Runtimes that track
// per-core liveness (the adaptive selector's switch gate) subscribe via
// Machine.SetIdleHook; with no subscriber the hint is free. Safe to call
// from any spin-loop iteration — subscribers make repeats idempotent.
func (c *CPU) IdleHint() {
	if h := c.m.idleHook; h != nil {
		h(c)
	}
}

// SpecOp performs a speculative-unit operation (SPECULATE, COMMIT, ABORT,
// RELEASE bookkeeping) atomically at the current time while holding the
// global turn. Pending asynchronous aborts are delivered first, so a COMMIT
// racing with a conflict abort observes the abort, never a late commit.
func (c *CPU) SpecOp(cost uint64, fn func()) {
	c.flushCycles()
	c.acquire()
	c.checkOSEvents()
	c.charge(cost)
	fn()
	c.endOp()
}

func (c *CPU) access(a mem.Addr, f Flags) mem.Word {
	c.flushCycles()
	c.acquire()
	c.checkOSEvents()
	c.beforeAccess(a)
	if c.m.hook != nil {
		c.m.hook(c, a, f|FPre)
	}
	res := c.m.Hier.Access(c.id, a, false)
	c.charge(res.Cycles)
	if c.m.hook != nil {
		c.m.hook(c, a, f)
	}
	var v mem.Word
	if f&FWatch == 0 {
		v = c.m.Mem.Load(a)
	}
	c.endOp()
	return v
}

func (c *CPU) accessStore(a mem.Addr, v mem.Word, f Flags) {
	c.flushCycles()
	c.acquire()
	c.checkOSEvents()
	c.beforeAccess(a)
	if c.m.hook != nil {
		c.m.hook(c, a, f|FPre) // conflict resolution before line movement
	}
	res := c.m.Hier.Access(c.id, a, true)
	c.charge(res.Cycles)
	if c.m.hook != nil {
		c.m.hook(c, a, f) // tracking & versioning
	}
	if f&FLocked != 0 && c.pendingAbort != AbortNone {
		// The access itself aborted the region mid-instruction (e.g.
		// its refill displaced a speculatively marked line): the
		// speculative store never retires.
		c.endOp()
		return
	}
	if f&FWatch == 0 {
		c.m.Mem.Store(a, v)
	}
	c.endOp()
}

// beforeAccess handles demand paging. A page fault inside a speculative
// region aborts it (ASF aborts on all exceptions); the OS model installs
// the page as part of handling the fault, so the retry proceeds. TLB
// misses, by contrast, never abort (unlike Sun Rock) — they are handled
// silently by the cache model's page walker.
func (c *CPU) beforeAccess(a mem.Addr) {
	pa := a.Page()
	if pa == c.presentPage {
		return
	}
	if c.m.Mem.Present(a) {
		c.presentPage = pa
		return
	}
	c.m.Mem.EnsurePresent(a)
	c.presentPage = pa
	c.charge(c.m.cfg.PageFaultCost)
	if c.spec != nil && c.spec.Active() {
		c.spec.AsyncAbort(AbortPageFault)
		c.deliverPendingAbort()
	}
}
