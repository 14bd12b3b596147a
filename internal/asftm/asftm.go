// Package asftm is ASF-TM: the TM runtime of the paper (§3.2), implementing
// the TM ABI of package tm on top of ASF speculative regions.
//
// The runtime provides what the ABI requires but ASF does not:
//
//   - a begin function combining a software setjmp (ASF restores only the
//     instruction and stack pointers) with SPECULATE, and restart emulation
//     by "returning from the begin function again";
//   - contention management: exponential back-off on contention aborts, and
//     a switch to the software fallback after repeated failures;
//   - the serial-irrevocable fallback itself: a global token acquired with
//     a plain CAS and *monitored* by every hardware transaction via a
//     speculative read at begin — acquiring the token instantly aborts all
//     in-flight regions, and new regions see it held and wait;
//   - an abort-robust transactional allocator (thread-private pools; pool
//     refills abort with a software code and run outside the region).
//
// Transactions that exceed ASF's capacity or fail too many times restart in
// serial-irrevocable mode, as in the paper.
package asftm

import (
	"asfstack/internal/asf"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Contention management and ABI costs.
const (
	// maxHWAttempts is how many hardware attempts are made before a
	// transaction restarts in serial-irrevocable mode. Capacity
	// overflows switch immediately.
	maxHWAttempts = 16
	// backoffBase and backoffMax bound the exponential back-off (cycles),
	// which doubles at most backoffShift times.
	backoffBase  = 64
	backoffMax   = 1 << 14
	backoffShift = 8

	// ABI software costs, in instructions. beginInstr covers the setjmp
	// register checkpoint, descriptor setup and mode dispatch; the paper
	// measures this added code making ASF's start/commit cost comparable
	// to the STM's (Table 1).
	beginInstr   = 60
	commitInstr  = 16
	barrierInstr = 2 // per Load/Store around the inlined LOCK MOV
)

// Runtime implements tm.Runtime on ASF.
type Runtime struct {
	sys  *asf.System
	heap *tm.Heap

	serial tm.SerialToken // global token, alone on its cache line

	txs []hwTx // per-core transaction descriptors (reused)

	tm.Lifecycle

	met rtMetrics
}

// rtMetrics holds the runtime's metric handles (zero-value inert).
type rtMetrics struct {
	// hwAttempts is the number of hardware attempts each transaction made
	// before completing (committing in hardware or going serial).
	hwAttempts metrics.Histogram
	// backoff records each contention back-off delay, in cycles.
	backoff metrics.Histogram
	// serialEntries counts entries into serial-irrevocable mode;
	// serialCycles accumulates simulated cycles the global token was held.
	serialEntries metrics.Counter
	serialCycles  metrics.Counter
}

// SetMetrics registers the runtime's instruments with reg. Must be called
// before the first transaction (stack construction does this).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met.hwAttempts = reg.Histogram("asftm/hw_attempts", metrics.PowersOfTwo(6))
	r.met.backoff = reg.Histogram("asftm/backoff_cycles", metrics.PowersOfTwo(16))
	r.met.serialEntries = reg.Counter("asftm/serial_entries")
	r.met.serialCycles = reg.Counter("asftm/serial_cycles")
}

// New builds the runtime for an installed ASF system. layout provides the
// runtime's metadata region (the serial token).
func New(sys *asf.System, heap *tm.Heap, m *sim.Machine, layout *mem.Layout) *Runtime {
	base, _ := layout.Region(mem.LineSize)
	m.Mem.Prefault(base, mem.LineSize)
	cores := m.Config().Cores
	r := &Runtime{
		sys:       sys,
		heap:      heap,
		serial:    tm.SerialToken{Addr: base},
		txs:       make([]hwTx, cores),
		Lifecycle: tm.NewLifecycle(cores),
	}
	for i := range r.txs {
		r.txs[i] = hwTx{r: r, c: m.CPU(i), u: sys.Unit(i)}
	}
	return r
}

// Name returns the ASF variant label (the figures key runs by it).
func (r *Runtime) Name() string { return r.sys.Variant().Name }

// ResetStats implements tm.Runtime: the outcome counters and the ASF
// units' own.
func (r *Runtime) ResetStats() {
	r.StatsTable.ResetStats()
	for i := range r.StatsTable {
		r.sys.Unit(i).ResetStats()
	}
}

// Atomic implements tm.Runtime: the _ITM_beginTransaction /
// _ITM_commitTransaction pair, hardware first.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	r.Run(c, &r.txs[c.ID()], tm.PathHW, body)
}

// Enter implements tm.Paths: the serial path takes its token inside the
// attempt.
func (t *hwTx) Enter(tm.TxPath) {}

// Attempt implements tm.Paths. A hardware attempt is one ASF region; the
// serial one takes the global token with a plain CAS (aborting every
// in-flight region that monitors it), runs the body uninstrumented and
// releases the token.
func (t *hwTx) Attempt(p tm.TxPath, body func(tm.Tx)) bool {
	c, u, r := t.c, t.u, t.r
	if p == tm.PathSerial {
		r.serial.Acquire(c)
		r.met.serialEntries.Inc(c.ID())
		held := c.Now() // token acquired; measure simulated cycles held
		tm.RunBody(c, t, body)
		r.NotifyCommit(c, true) // before the release: the token is the commit point
		r.serial.Release(c)
		r.met.serialCycles.Add(c.ID(), c.Now()-held)
		return true
	}
	c.Exec(beginInstr)
	t.reason, t.code = u.Region(func() {
		// The global serial token is the first speculative read of
		// every region: if a serial transaction holds it we must not
		// proceed, and if one acquires it later the CAS write aborts
		// us instantly.
		if u.Load(r.serial.Addr) != 0 {
			u.Abort(tm.CodeSerialRunning)
		}
		tm.RunBody(c, t, body)
		c.Exec(commitInstr)
	})
	if t.reason != sim.AbortNone {
		return false
	}
	r.NotifyCommit(c, false)
	return true
}

// Aborted implements tm.Paths: ASF has rolled the region back already.
func (t *hwTx) Aborted(_ tm.TxPath, ev tm.TxEvent) tm.TxEvent {
	read, write := t.u.LastSetSizes()
	ev.Cause, ev.Code, ev.Reads, ev.Writes = t.reason, t.code, uint32(read), uint32(write)
	ev.Aborter, ev.Addr = t.u.LastAbortEdge()
	return ev
}

// Retry implements tm.Paths: capacity overflows and irrevocability
// requests go serial at once, contention backs off, a held token is
// waited out, and the transaction goes serial after maxHWAttempts.
func (t *hwTx) Retry(p tm.TxPath, n int) tm.TxPath {
	c, r := t.c, t.r
	st := &r.StatsTable[c.ID()]
	serial := false
	switch t.reason {
	case sim.AbortCapacity:
		// No point retrying: the working set does not fit.
		st.Aborts[sim.AbortCapacity]++
		serial = true
	case sim.AbortExplicit:
		switch t.code {
		case tm.CodeMallocRefill:
			st.MallocAborts++
			r.heap.Refill(c, tm.ChunkSize)
		case tm.CodeSerialRunning:
			st.Aborts[sim.AbortContention]++
			r.serial.Drain(c)
		case tm.CodeSerialRequest:
			st.Aborts[sim.AbortExplicit]++
			serial = true
		default:
			st.Aborts[sim.AbortExplicit]++
		}
	case sim.AbortContention:
		st.Aborts[sim.AbortContention]++
		r.met.backoff.Observe(c.ID(), tm.Backoff(c, n, backoffBase, backoffShift, backoffMax))
	default:
		// Page fault (now handled), interrupt, syscall: retry
		// immediately.
		st.Aborts[t.reason]++
	}
	if serial || n >= maxHWAttempts {
		r.met.hwAttempts.Observe(c.ID(), uint64(n))
		return tm.PathSerial
	}
	return p
}

// Committed implements tm.Paths.
func (t *hwTx) Committed(p tm.TxPath, n int, ev tm.TxEvent) tm.TxEvent {
	if p == tm.PathHW {
		t.r.met.hwAttempts.Observe(t.c.ID(), uint64(n))
		read, write := t.u.LastSetSizes()
		ev.Reads, ev.Writes = uint32(read), uint32(write)
	}
	return ev
}

// hwTx implements tm.Tx for both the hardware and the serial code path —
// the two code paths the compiler generates, dispatched by the begin
// function's return value (§3.1).
type hwTx struct {
	tm.Frame
	r *Runtime
	c *sim.CPU
	u *asf.Unit

	// reason and code are the last hardware attempt's abort.
	reason sim.AbortReason
	code   uint64
}

// Load implements tm.Tx.
func (t *hwTx) Load(a mem.Addr) mem.Word {
	prev := t.c.SetCategory(sim.CatTxLoadStore)
	var v mem.Word
	if t.Irrevocable() {
		t.c.Exec(2) // serial-mode ABI dispatch
		v = t.c.Load(a)
	} else {
		t.c.Exec(barrierInstr)
		v = t.u.Load(a)
	}
	t.c.SetCategory(prev)
	return v
}

// Store implements tm.Tx.
func (t *hwTx) Store(a mem.Addr, v mem.Word) {
	prev := t.c.SetCategory(sim.CatTxLoadStore)
	if t.Irrevocable() {
		t.c.Exec(2)
		t.c.Store(a, v)
	} else {
		t.c.Exec(barrierInstr)
		t.u.Store(a, v)
	}
	t.c.SetCategory(prev)
}

// Alloc implements tm.Tx.
func (t *hwTx) Alloc(size uint64) mem.Addr { return t.alloc(size, mem.WordSize) }

// AllocLines implements tm.Tx.
func (t *hwTx) AllocLines(n int) mem.Addr {
	return t.alloc(uint64(n)*mem.LineSize, mem.LineSize)
}

// alloc is pool allocation. The serial path refills inline; the hardware
// path must not call the real allocator speculatively, so it aborts,
// refills outside the region and retries (§3.3).
func (t *hwTx) alloc(size, align uint64) mem.Addr {
	if t.Irrevocable() {
		return t.r.heap.Alloc(t.c, size, align)
	}
	a, ok := t.r.heap.AllocFast(t.c, size, align)
	if !ok {
		t.u.Abort(tm.CodeMallocRefill)
	}
	return a
}

// Free implements tm.Tx.
func (t *hwTx) Free(a mem.Addr) { t.r.heap.Free(t.c, a) }

// CPU implements tm.Tx.
func (t *hwTx) CPU() *sim.CPU { return t.c }

// BecomeIrrevocable implements tm.Irrevocably: a hardware transaction
// aborts with a software code and restarts directly in serial mode; a
// serial transaction already is irrevocable.
func (t *hwTx) BecomeIrrevocable() {
	if !t.Irrevocable() {
		t.u.Abort(tm.CodeSerialRequest)
	}
}

// Release exposes ASF early release to expert callers (the linked-list
// workload's hand-over-hand traversal, Fig. 8). It is a no-op in serial
// mode. Callers must type-assert the tm.Tx to *asftm.Tx — early release is
// an ASF-specific extension, not part of the portable ABI.
func (t *hwTx) Release(a mem.Addr) {
	if !t.Irrevocable() {
		t.u.Release(a)
	}
}

// Tx is the exported name of the runtime's transaction descriptor, for
// ASF-specific extensions such as Release.
type Tx = hwTx
