package tm

import (
	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// The transaction lifecycle every runtime shares: the paper's begin
// function (§3.2), which checkpoints, runs an attempt, emulates restart by
// returning again, and falls back to another path. The driver owns flat
// nesting, the category switches, the per-attempt counter snapshot and
// MoveToAbort, every TxEvent, the attempt count of each path and the
// hand-off from one path to the next. A runtime keeps only its paths, as
// the Paths methods of its per-core descriptor.

// Paths is a runtime's per-core transaction descriptor as the driver sees
// it: the Tx the body runs against, plus the paths an attempt can take
// (hardware, software, serial). Each method gets the path it acts on.
type Paths interface {
	Tx
	frame() *Frame
	// Enter runs when the transaction enters path p: after its begin or
	// fallback event, before its first attempt on p, under the category
	// of what came before.
	Enter(p TxPath)
	// Attempt runs one attempt on p, entered under CatTxStartCommit: the
	// begin function, body through RunBody, and the commit point, which
	// calls NotifyCommit. It reports false for an attempt that aborted; a
	// software attempt may instead Abandon itself.
	Attempt(p TxPath, body func(Tx)) bool
	// Aborted undoes what the failed attempt on p left in memory, before
	// its cycles move to CatAbort, and returns ev describing the abort:
	// cause, code and set sizes, and the causality edge of a hardware
	// abort (an abandoned attempt's is in ev already).
	Aborted(p TxPath, ev TxEvent) TxEvent
	// Retry handles the n-th failed attempt on p under CatAbort: it counts
	// the abort, waits, refills or backs off, and returns the path of the
	// next attempt, p itself to retry on it.
	Retry(p TxPath, n int) TxPath
	// Committed accounts the commit of the n-th attempt on p, under
	// CatNonInstr once the commit event is stamped, and returns ev
	// describing it: the path it committed on and its set sizes.
	Committed(p TxPath, n int, ev TxEvent) TxEvent
}

// Frame is the driver's per-core state, embedded in a runtime's
// descriptor: the flat-nesting depth of Atomic calls on its core, the path
// of the running attempt, and the causality edge of an abandoned attempt.
type Frame struct {
	depth int
	path  TxPath
	by    int
	addr  mem.Addr
}

func (f *Frame) frame() *Frame { return f }

// Path returns the path of the attempt running on the core: the code path
// the begin function selected (§3.1), which the barriers dispatch on.
func (f *Frame) Path() TxPath { return f.path }

// Irrevocable implements Tx.Irrevocable: the attempt runs on PathSerial.
func (f *Frame) Irrevocable() bool { return f.path == PathSerial }

// Abandon is the software longjmp (TinySTM's siglongjmp): it abandons the
// attempt running on core c, which the driver counts as aborted, blaming
// core by and the line at addr (sim.NoCore and sim.NoAddr when unknown).
// It never returns.
func (f *Frame) Abandon(c *sim.CPU, by int, addr mem.Addr) {
	f.by, f.addr = by, addr
	panic(unwind{core: c.ID()})
}

// Lifecycle is the lifecycle driver a runtime embeds. It also holds the
// runtime's per-core outcome counters and observers, so it implements
// Runtime.Stats, Runtime.ResetStats, HookableRuntime and
// ProfilableRuntime. The driver counts every commit, the serial ones, and
// the software aborts (TxEvent.STM); the paths count the rest.
type Lifecycle struct {
	StatsTable
	hook CommitHook
	prof TxProfiler
}

// NewLifecycle returns the driver of a runtime on cores cores.
func NewLifecycle(cores int) Lifecycle { return Lifecycle{StatsTable: make(StatsTable, cores)} }

// SetCommitHook implements HookableRuntime.
func (l *Lifecycle) SetCommitHook(h CommitHook) { l.hook = h }

// SetProfiler implements ProfilableRuntime.
func (l *Lifecycle) SetProfiler(p TxProfiler) { l.prof = p }

// NotifyCommit reports a commit to the hook under the global turn, so hook
// invocations across cores are totally ordered (see CommitHook). A path
// calls it at its commit point.
func (l *Lifecycle) NotifyCommit(c *sim.CPU, serial bool) {
	if l.hook != nil {
		c.SpecOp(0, func() { l.hook(c.ID(), serial) })
	}
}

// Run executes body as one transaction on core c, whose descriptor is d,
// starting on path p, and returns after it commits. Nested in another
// transaction on c, it runs body inline (flat nesting).
func (l *Lifecycle) Run(c *sim.CPU, d Paths, p TxPath, body func(Tx)) {
	f := d.frame()
	if f.depth > 0 {
		f.depth++
		body(d)
		f.depth--
		return
	}
	f.depth = 1
	defer func() { f.depth = 0 }()

	l.emit(c, event(TxEvBegin, p, c.Now()))
	d.Enter(p)
	st := &l.StatsTable[c.ID()]
	for n := 1; ; n++ {
		c.SetCategory(sim.CatTxStartCommit)
		snap := c.Counters()
		start := c.Now()
		f.path, f.by, f.addr = p, sim.NoCore, sim.NoAddr
		if attempt(c, d, p, body) {
			c.SetCategory(sim.CatNonInstr)
			ev := event(TxEvCommit, p, c.Now())
			ev.Cycles = ev.Time - start
			st.Commits++
			if p == PathSerial {
				st.Serial++
			}
			l.emit(c, d.Committed(p, n, ev))
			return
		}
		ev := event(TxEvAbort, p, 0)
		ev.Aborter, ev.Addr = f.by, f.addr
		ev = d.Aborted(p, ev)
		// The attempt's cycles are wasted work: move them to the
		// abort/restart bucket, like the paper's trace annotation.
		c.MoveToAbort(snap)
		ev.Time = c.Now()
		ev.Cycles = ev.Time - start
		l.emit(c, ev)
		c.SetCategory(sim.CatAbort)
		if ev.STM {
			st.STMAborts++
		}
		if next := d.Retry(p, n); next != p {
			l.emit(c, event(TxEvFallback, next, c.Now()))
			d.Enter(next)
			p, n = next, 0
		}
	}
}

// event returns an event of kind k on path p at time now, with no
// causality edge.
func event(k TxEventKind, p TxPath, now uint64) TxEvent {
	return TxEvent{Time: now, Kind: k, Path: p, Aborter: sim.NoCore, Addr: sim.NoAddr}
}

// emit hands ev to the profiler. The nil check is the entire disabled-path
// cost; recording charges no simulated cycles (the paper's
// no-interference tracing methodology).
func (l *Lifecycle) emit(c *sim.CPU, ev TxEvent) {
	if l.prof != nil {
		l.prof.Record(c.ID(), ev)
	}
}

// RunBody runs the transaction body under CatTxApp and returns to
// CatTxStartCommit for the commit point.
func RunBody(c *sim.CPU, tx Tx, body func(Tx)) {
	c.SetCategory(sim.CatTxApp)
	body(tx)
	c.SetCategory(sim.CatTxStartCommit)
}

// unwind is the panic value of Abandon: the longjmp back to the begin of
// the attempt running on core.
type unwind struct{ core int }

// attempt runs one attempt of d on p and reports whether it committed. An
// attempt abandoned on c reports false; any other panic, another core's
// abandoned attempt included, propagates.
func attempt(c *sim.CPU, d Paths, p TxPath, body func(Tx)) (committed bool) {
	defer func() {
		if committed {
			return
		}
		if rec := recover(); rec != nil {
			if u, ok := rec.(unwind); !ok || u.core != c.ID() {
				panic(rec)
			}
		}
	}()
	return d.Attempt(p, body)
}

// SerialToken is a serial-irrevocable token: one word of simulated memory,
// 0 while free, taken with a plain CAS.
type SerialToken struct{ Addr mem.Addr }

// Acquire takes the token on c, spinning 100..499 cycles (one draw of the
// core's generator) after each failed CAS.
func (s SerialToken) Acquire(c *sim.CPU) {
	for {
		if _, ok := c.CAS(s.Addr, 0, 1); ok {
			return
		}
		c.Cycles(uint64(c.Rand().Int63n(400)) + 100)
	}
}

// Release frees the token.
func (s SerialToken) Release(c *sim.CPU) { c.Store(s.Addr, 0) }

// Drain waits until the token is free, polling with plain loads (they do
// not conflict) every 200 cycles.
func (s SerialToken) Drain(c *sim.CPU) {
	for c.Load(s.Addr) != 0 {
		c.Cycles(200)
	}
}
