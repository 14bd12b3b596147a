// Package tm defines the transactional-memory application binary interface
// (ABI) the rest of the stack is written against, mirroring the role of the
// Intel TM ABI proposal in the paper's stack: the compiler (and our
// workloads, which are written in the post-compiler form) target this
// interface, and TM implementations — ASF-TM, the TinySTM baseline, the
// uninstrumented sequential runtime — provide it. Programs written against
// the ABI run unchanged on any of them, which is exactly the portability
// argument §3.1 makes.
package tm

import (
	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// Tx is the per-transaction handle: the _ITM_R8/_ITM_W8-style barriers plus
// transactional memory management.
//
// Load and Store are the instrumented accesses for data that may be shared;
// thread-local data (the stack, in compiled code) is accessed directly
// through CPU() — the selective-annotation optimisation DTMC performs.
type Tx interface {
	// Load performs a transactional read of the word at a.
	Load(a mem.Addr) mem.Word
	// Store performs a transactional write of the word at a.
	Store(a mem.Addr, v mem.Word)
	// Alloc returns size bytes of zeroed transactional memory. The
	// allocation is abort-safe: it is rolled back (leaked, in the
	// arena model) if the transaction aborts.
	Alloc(size uint64) mem.Addr
	// AllocLines returns n whole, line-aligned cache lines — the padded
	// allocation used for shared-structure entry points.
	AllocLines(n int) mem.Addr
	// Free releases an allocation at commit time. (The arena allocator
	// makes this a bookkeeping no-op, charged but not reclaimed.)
	Free(a mem.Addr)
	// CPU returns the core, for uninstrumented (thread-local) accesses
	// and compute charging.
	CPU() *sim.CPU
	// Irrevocable reports whether the transaction runs in
	// serial-irrevocable mode (it cannot abort and runs alone).
	Irrevocable() bool
}

// Runtime is a TM implementation: it executes atomic blocks.
type Runtime interface {
	// Name returns the label used in figures ("LLB-256", "STM", ...).
	Name() string
	// Atomic executes body as one transaction on core c, retrying and
	// falling back as the implementation dictates, and returns only
	// after a successful commit.
	Atomic(c *sim.CPU, body func(tx Tx))
	// Stats returns core-level outcome counters.
	//
	// The counters are owned by the core's goroutine and mutated without
	// synchronisation while the machine runs; reading them mid-run is a
	// data race and, worse, an incoherent sample. Callers must read only
	// at a barrier — between sim.Machine.Run calls (sim.Machine.Running
	// reports this; the Stack's snapshot paths enforce it).
	Stats(core int) Stats
	// ResetStats zeroes all counters (start of the measured phase).
	ResetStats()
}

// Stats aggregates transaction outcomes for one core, in the categories of
// the paper's abort breakdown (Fig. 6).
type Stats struct {
	Commits uint64 // committed transactions
	Serial  uint64 // commits that ran in serial-irrevocable mode
	// SWCommits: commits of a *concurrent* software fallback path (the
	// hybrid runtime's non-serial software transactions). Also counted in
	// Commits; pure hardware and pure software runtimes leave this zero.
	SWCommits uint64

	// Aborts per hardware reason (indexed by sim.AbortReason).
	Aborts [sim.NumAbortReasons]uint64
	// MallocAborts: explicit aborts taken to refill the transactional
	// allocator (the paper's "Abort (malloc)" category). The runtimes
	// count them differently: HyTM also counts each in
	// Aborts[sim.AbortExplicit]; ASF-TM counts them here only, so they
	// fall outside TotalAborts and Attempts (Fig. 6 adds them back).
	MallocAborts uint64
	// STMAborts: software aborts of an STM runtime (conflict, validation
	// failure). Hardware runtimes leave this zero.
	STMAborts uint64
	// SeqAborts: hardware aborts induced by the hybrid runtime's commit-
	// sequence seqlock — regions that found it held at begin (also counted
	// in Aborts[sim.AbortContention]) plus in-flight regions killed by a
	// software commit's seqlock acquisition (attributed to the acquiring
	// core). Non-hybrid runtimes leave this zero.
	SeqAborts uint64
	// Seals: cohorts this core sealed (it was the first member of a batch
	// to reach its commit point, closing admission). Only the Cohorts
	// runtime populates it; the count of seals across cores is the number
	// of commit batches the run executed.
	Seals uint64
}

// TotalAborts sums hardware and software aborts. ASF-TM's malloc-refill
// aborts are not among them (see MallocAborts).
func (s *Stats) TotalAborts() uint64 {
	var t uint64
	for _, v := range s.Aborts {
		t += v
	}
	return t + s.STMAborts
}

// Attempts returns commits + aborts (every try counts once).
func (s *Stats) Attempts() uint64 { return s.Commits + s.TotalAborts() }

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Serial += o.Serial
	s.SWCommits += o.SWCommits
	for i := range s.Aborts {
		s.Aborts[i] += o.Aborts[i]
	}
	s.MallocAborts += o.MallocAborts
	s.STMAborts += o.STMAborts
	s.SeqAborts += o.SeqAborts
	s.Seals += o.Seals
}

// Sub removes other from s: the outcomes between two snapshots.
func (s *Stats) Sub(o Stats) {
	s.Commits -= o.Commits
	s.Serial -= o.Serial
	s.SWCommits -= o.SWCommits
	for i := range s.Aborts {
		s.Aborts[i] -= o.Aborts[i]
	}
	s.MallocAborts -= o.MallocAborts
	s.STMAborts -= o.STMAborts
	s.SeqAborts -= o.SeqAborts
	s.Seals -= o.Seals
}

// Explicit-abort software codes (carried in rAX by the ABORT instruction).
const (
	// CodeMallocRefill: the transactional allocator ran out of pool and
	// must call the real allocator outside the region.
	CodeMallocRefill uint64 = 0x11A110C
	// CodeSerialRunning: a serial-irrevocable transaction holds the
	// global token; the hardware path cannot proceed.
	CodeSerialRunning uint64 = 0x5E71A1
	// CodeSerialRequest: the program (via the compiler's serialize
	// lowering, §3.3) asked to restart in serial-irrevocable mode
	// before an action with no transaction-safe version.
	CodeSerialRequest uint64 = 0x5E71A2
	// CodeSeqLocked: the hybrid runtime's commit-sequence seqlock was held
	// (a software writeback or a serial transaction is in flight); the
	// hardware region must wait it out and retry.
	CodeSeqLocked uint64 = 0x5E90C
)

// CommitHook observes committed transactions in global commit order: core
// is the committing core and serial reports serial-irrevocable mode. The
// litmus conformance suite installs one to reconstruct the serialization
// order a run exhibited.
//
// Runtimes invoke the hook through sim.CPU.SpecOp, i.e. while holding the
// global turn, so invocations are totally ordered and the hook may touch
// shared (host) state without synchronisation — but it must stay cheap, and
// it observes a commit that has already happened (it cannot veto).
type CommitHook func(core int, serial bool)

// HookableRuntime is implemented by runtimes that can notify a CommitHook.
// Passing nil uninstalls the hook. Every runtime in this repository —
// ASF-TM, HyTM, STM, Cohorts, the sequential baseline, and the adaptive
// selector — implements it; it is kept out of Runtime so external
// implementations stay source-compatible.
type HookableRuntime interface {
	SetCommitHook(CommitHook)
}

// Irrevocably is implemented by transactions that can switch to
// serial-irrevocable mode mid-flight — the lowering DTMC emits before
// calling a function with no transactional clone. The switch may restart
// the transaction (work so far is rolled back and re-executed serially).
type Irrevocably interface {
	BecomeIrrevocable()
}

// --- Transaction lifecycle events ---------------------------------------
//
// The types below are the one record of a transaction's lifecycle: the wire
// format between the runtimes and their sinks, the internal/txprof flight
// recorder and a traced measured phase (internal/trace). They live in tm so
// that runtimes depend only on the ABI; the sinks implement TxProfiler.

// TxEventKind tags one flight-recorder record.
type TxEventKind uint8

const (
	// TxEvBegin: a transaction (first attempt) started.
	TxEvBegin TxEventKind = iota
	// TxEvAbort: an attempt aborted. Cause/Code/Aborter/Addr carry the
	// abort cause and its causality edge; Reads/Writes the attempt's
	// read/write-set sizes at rollback; Cycles the cycles the attempt
	// burned (wasted work).
	TxEvAbort
	// TxEvFallback: the runtime switched execution path (Path is the path
	// being entered: hardware → software, → serial, ...).
	TxEvFallback
	// TxEvCommit: an attempt committed on Path. Reads/Writes are the
	// final set sizes, Cycles the committed attempt's duration.
	TxEvCommit

	NumTxEventKinds = iota
)

func (k TxEventKind) String() string {
	switch k {
	case TxEvBegin:
		return "begin"
	case TxEvAbort:
		return "abort"
	case TxEvFallback:
		return "fallback"
	case TxEvCommit:
		return "commit"
	default:
		return "txev(?)"
	}
}

// TxPath identifies the execution path of a transaction attempt.
type TxPath uint8

const (
	// PathHW: an ASF hardware region.
	PathHW TxPath = iota
	// PathSW: a concurrent software path (HyTM's NOrec fallback, TinySTM,
	// an instrumented cohort member).
	PathSW
	// PathSerial: the serial-irrevocable token.
	PathSerial
	// PathTurbo: a cohort turbo commit (uninstrumented last member).
	PathTurbo

	NumTxPaths = iota
)

func (p TxPath) String() string {
	switch p {
	case PathHW:
		return "hw"
	case PathSW:
		return "sw"
	case PathSerial:
		return "serial"
	case PathTurbo:
		return "turbo"
	default:
		return "path(?)"
	}
}

// TxEvent is one per-transaction flight-recorder record. It is plain data
// (no pointers) so rings of them live in one allocation and recording never
// allocates.
type TxEvent struct {
	// Time is the core-local cycle stamp (sim.CPU.Now) of the event.
	Time uint64 `json:"time"`
	// Kind/Path: what happened and on which execution path.
	Kind TxEventKind `json:"kind"`
	Path TxPath      `json:"path"`
	// Cause/Code: abort cause (TxEvAbort only; Cause is a sim.AbortReason,
	// Code the software abort code — sim.AbortNone/0 for software-runtime
	// aborts, which set STM true instead).
	Cause sim.AbortReason `json:"cause,omitempty"`
	Code  uint64          `json:"code,omitempty"`
	// STM marks a software-runtime abort (validation/locking conflict)
	// rather than a hardware one.
	STM bool `json:"stm,omitempty"`
	// Aborter is the core whose access killed this attempt (the causality
	// edge), sim.NoCore when self-inflicted or unknown.
	Aborter int `json:"aborter"`
	// Addr is the conflicting (or displaced) cache line, sim.NoAddr when
	// unknown.
	Addr mem.Addr `json:"addr"`
	// Reads/Writes are the attempt's read/write-set sizes at the event.
	Reads  uint32 `json:"reads"`
	Writes uint32 `json:"writes"`
	// Cycles is the duration of the attempt that ended with this event
	// (abort: wasted work; commit: useful work); 0 for begin/fallback.
	Cycles uint64 `json:"cycles"`
}

// TxProfiler receives per-transaction events: the flight recorder, and the
// traced measured phase. Record is called from the core's own goroutine on
// the runtime hot path: it must not synchronise across cores beyond
// per-core state, and is only ever invoked for the given core from that
// core's execution.
type TxProfiler interface {
	Record(core int, ev TxEvent)
}

// Tee returns a profiler that hands every event to each of ps in order: nil
// for none, the profiler itself for one. Every element must be non-nil (a
// nil pointer stored in the interface is not).
func Tee(ps ...TxProfiler) TxProfiler {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return tee(ps)
}

type tee []TxProfiler

func (t tee) Record(core int, ev TxEvent) {
	for _, p := range t {
		p.Record(core, ev)
	}
}

// ProfilableRuntime is implemented by runtimes that can feed a TxProfiler.
// Passing nil uninstalls the profiler (the disabled state: runtimes keep
// one predictable nil-check branch on the hot path and nothing else).
// Like HookableRuntime it is kept out of Runtime so external
// implementations stay source-compatible.
type ProfilableRuntime interface {
	SetProfiler(TxProfiler)
}

// Observers is the observer state a runtime embeds to implement
// HookableRuntime and ProfilableRuntime: the commit hook and the profiler.
// A runtime reports each lifecycle point with one Record call.
type Observers struct {
	hook CommitHook
	prof TxProfiler
}

// SetCommitHook implements HookableRuntime.
func (o *Observers) SetCommitHook(h CommitHook) { o.hook = h }

// SetProfiler implements ProfilableRuntime.
func (o *Observers) SetProfiler(p TxProfiler) { o.prof = p }

// Profiling reports whether a profiler is installed, so a runtime can skip
// gathering a payload nobody will read.
func (o *Observers) Profiling() bool { return o.prof != nil }

// Record stamps ev with the core's clock and hands it to the profiler. The
// nil check is the entire disabled-path cost; recording charges no
// simulated cycles (the paper's no-interference tracing methodology).
func (o *Observers) Record(c *sim.CPU, ev TxEvent) {
	if o.prof != nil {
		ev.Time = c.Now()
		o.prof.Record(c.ID(), ev)
	}
}

// NotifyCommit reports a commit to the hook under the global turn, so hook
// invocations across cores are totally ordered (see CommitHook).
func (o *Observers) NotifyCommit(c *sim.CPU, serial bool) {
	if o.hook != nil {
		c.SpecOp(0, func() { o.hook(c.ID(), serial) })
	}
}
