package litmus

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	asfstack "asfstack"
	"asfstack/internal/hytm"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/stm"
	"asfstack/internal/tm"
)

// Isolation classifies what a runtime implementation guarantees to *plain*
// (uninstrumented) accesses racing with transactions.
type Isolation uint8

const (
	// IsolationStrong: atomic blocks are indivisible with respect to every
	// access, plain or transactional — the ASF hardware property (plain
	// probes abort the speculative region before they can observe or break
	// it). Allowed outcomes: Test.Strong().
	IsolationStrong Isolation = iota
	// IsolationWeak: transactions are atomic against each other, but plain
	// accesses can observe (or interleave with) a transaction's individual
	// memory operations — write-through STM stores, redo-log writebacks,
	// and serial-mode in-place stores. Allowed outcomes:
	// Test.Weak() ∪ Test.WeakAllowed.
	IsolationWeak
)

func (i Isolation) String() string {
	if i == IsolationStrong {
		return "strong"
	}
	return "weak"
}

// RuntimeConfig is one column of the conformance matrix: a stack runtime
// plus forcing knobs, classified by the isolation its implementation gives.
type RuntimeConfig struct {
	// Label names the column in failures and tables.
	Label string
	// Stack is the asfstack.Options.Runtime value.
	Stack string
	// ForceSerial routes every atomic block through the runtime's
	// serial-irrevocable path (BecomeIrrevocable as the first action).
	ForceSerial bool
	// ForceSW routes every hybrid transaction to the software fallback
	// (hytm.Runtime.ForceSW).
	ForceSW bool
	// STMUnsafe turns off the STM's privatization safety
	// (stm.Runtime.PrivatizationSafe) — the regression configuration that
	// reproduces the zombie-writeback bug the suite originally flushed out.
	// Not part of Matrix; see TestSTMPrivatizationRegression.
	STMUnsafe bool
	// Isolation selects the allowed-outcome envelope.
	Isolation Isolation
}

// Matrix is the conformance matrix: every TM runtime in the stack, plus the
// forced software-fallback and serial-token paths that normal litmus-sized
// transactions would never reach on their own.
func Matrix() []RuntimeConfig {
	return []RuntimeConfig{
		{Label: "ASF-TM", Stack: "LLB-256", Isolation: IsolationStrong},
		{Label: "HyTM-8", Stack: "HyTM-8", Isolation: IsolationStrong},
		{Label: "HyTM-256", Stack: "HyTM-256", Isolation: IsolationStrong},
		// The hybrid's software fallback publishes its redo log with plain
		// stores under the seqlock; concurrent transactions serialize
		// against it but plain readers can observe the writeback mid-way.
		{Label: "HyTM-SW", Stack: "HyTM-256", ForceSW: true, Isolation: IsolationWeak},
		// TinySTM is write-through: speculative values sit in place until
		// commit or undo, so plain accesses see them — the textbook weak
		// isolation the paper's STM baseline accepts.
		{Label: "STM", Stack: "STM", Isolation: IsolationWeak},
		// The serial token path runs bodies with plain in-place stores
		// while holding the token: atomic against transactions (they all
		// take the token) but torn for plain readers.
		{Label: "SerialToken", Stack: "LLB-256", ForceSerial: true, Isolation: IsolationWeak},
		// Cohorts publishes redo logs with plain stores during the batched
		// commit phase (and turbo mode writes in place mid-transaction), so
		// plain readers can observe a writeback mid-way — the same weak
		// class as HyTM-SW and STM. Both configurations are judged against
		// the weak envelope; the turbo column additionally exercises the
		// uninstrumented-last-member path.
		{Label: "Cohorts", Stack: "Cohorts", Isolation: IsolationWeak},
		{Label: "Cohorts-turbo", Stack: "Cohorts-turbo", Isolation: IsolationWeak},
		// The adaptive selector switches among the four families above
		// mid-run behind its drain gate; its envelope is the union of its
		// inner modes', i.e. weak.
		{Label: "Adaptive-8", Stack: "Adaptive-8", Isolation: IsolationWeak},
	}
}

// ExploreOptions parameterizes one exploration run.
type ExploreOptions struct {
	// Seed seeds the machine and the schedule-noise streams. Each seed is
	// one deterministic sequence of interleavings.
	Seed int64
	// Iters is how many interleavings to run.
	Iters int
	// MaxViolations stops the run early once this many envelope violations
	// are collected (0 means DefaultMaxViolations).
	MaxViolations int
}

// DefaultNoise is sim.Config.SchedNoise under exploration, the
// per-operation stall bound that spreads iterations over distinct
// interleavings: large enough to reorder operations across cores (cache
// hits are single-digit to double-digit cycles) without drowning the run in
// stall time.
const DefaultNoise = 48

// DefaultMaxViolations bounds failure output.
const DefaultMaxViolations = 8

// IterRecord is what one iteration observed.
type IterRecord struct {
	// Outcome is the canonical outcome string.
	Outcome string
	// Order is the transaction commit order as one byte per commit: the
	// core digit, with '!' appended when that commit used a serial path.
	Order string
}

// Violation is one outcome outside the runtime's allowed envelope, with
// everything needed to replay the exact interleaving.
type Violation struct {
	Test    string
	Runtime string
	Seed    int64
	Iter    int
	Outcome string
	Order   string
	Allowed []string
	// Dump is the flight-recorder text for the violating iteration: every
	// core's transaction events (begin/abort/fallback/commit with causes,
	// causality edges and set sizes) from the per-iteration recorder window.
	Dump string
}

func (v Violation) String() string {
	msg := fmt.Sprintf(
		"litmus %s on %s: outcome %q outside the allowed envelope (commit order %q)\n"+
			"  replay: seed=%d iter=%d  (litmus.Replay reruns iterations 0..%d of this seed deterministically)\n"+
			"  allowed: %s",
		v.Test, v.Runtime, v.Outcome, v.Order,
		v.Seed, v.Iter, v.Iter,
		strings.Join(v.Allowed, " | "))
	if v.Dump != "" {
		msg += "\n  " + strings.ReplaceAll(strings.TrimRight(v.Dump, "\n"), "\n", "\n  ")
	}
	return msg
}

// SaveDump writes the violation's message and flight-recorder dump into dir
// and returns the file path. Explore calls it for every violation when the
// LITMUS_DUMP_DIR environment variable is set — the hook CI uses to upload
// the dumps as a failure artifact.
func (v Violation) SaveDump(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '-', r == '_', r == '.', r == '+':
				return r
			default:
				return '-'
			}
		}, s)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-iter%d.txt",
		clean(v.Test), clean(v.Runtime), v.Seed, v.Iter))
	return path, os.WriteFile(path, []byte(v.String()+"\n"), 0o644)
}

// Result is one exploration: a test on a runtime under a seed.
type Result struct {
	Test    string
	Runtime string
	Seed    int64
	Iters   int

	// Outcomes counts iterations per observed outcome; FirstIter records
	// the earliest iteration that produced each (the replay pointer).
	Outcomes  map[string]int
	FirstIter map[string]int
	// Trace records every iteration in order (replay and determinism
	// checks).
	Trace []IterRecord
	// Violations are the outcomes outside the envelope, bounded by
	// MaxViolations.
	Violations []Violation
	// Allowed is the envelope the run was judged against, sorted.
	Allowed []string

	// Stats accumulates the runtime's counters over all iterations and
	// Cycles is the machine clock after the last one — the suite's feed
	// into the harness abort-attribution tables.
	Stats  tm.Stats
	Cycles uint64
}

// Envelope returns the allowed-outcome set for t on rc: Strong() for
// strongly isolated runtimes, Weak() plus the test's pinned extras for
// weakly isolated ones.
func Envelope(t *Test, rc RuntimeConfig) map[string]bool {
	if rc.Isolation == IsolationStrong {
		return t.Strong()
	}
	allowed := t.Weak()
	for _, o := range t.WeakAllowed {
		allowed[o] = true
	}
	return allowed
}

// Explore runs t on rc for opts.Iters deterministically seeded random
// interleavings and judges every outcome against the envelope. It is a pure
// function of its arguments: the same (test, runtime, options) produce the
// same Result, bit for bit, on any host.
func Explore(t *Test, rc RuntimeConfig, opts ExploreOptions) *Result {
	if opts.MaxViolations == 0 {
		opts.MaxViolations = DefaultMaxViolations
	}
	n := len(t.Threads)
	cfg := sim.Barcelona(n)
	cfg.Seed = opts.Seed
	cfg.SchedNoise = DefaultNoise

	// The flight recorder is always on under exploration: Record costs no
	// simulated cycles, and a violating iteration's dump — reset at each
	// iteration boundary, so it covers exactly the violating interleaving —
	// ships with the replay pointer.
	s := asfstack.New(asfstack.Options{
		Cores:       n,
		Runtime:     rc.Stack,
		HeapPerCore: 1 << 20,
		Machine:     &cfg,
		Profile:     true,
	})
	defer s.Release()
	if rc.ForceSW {
		s.RT.(*hytm.Runtime).ForceSW = true
	}
	if rc.STMUnsafe {
		s.RT.(*stm.Runtime).PrivatizationSafe = false
	}

	// The commit hook runs under the global turn (via SpecOp), so appends
	// are totally ordered and race-free; the buffer is read at barriers.
	var order []byte
	if hr, ok := s.RT.(tm.HookableRuntime); ok {
		hr.SetCommitHook(func(core int, serial bool) {
			order = append(order, byte('0'+core))
			if serial {
				order = append(order, '!')
			}
		})
	}

	addrs := make([]mem.Addr, len(t.Vars))
	for i := range addrs {
		addrs[i] = s.AllocShared(mem.WordSize)
	}
	init := t.initVals()
	nr := t.maxReg()
	regs := make([][]uint64, n)
	for i := range regs {
		regs[i] = make([]uint64, nr)
	}

	// Per-op jitter alone cannot slide a short plain program across a long
	// instrumented transaction, so each thread also gets a fresh random
	// start offset every iteration, spanning a few transaction lengths.
	srng := rand.New(rand.NewSource(opts.Seed*1_000_003 + 17))
	stagMax := int64(DefaultNoise)*32 + 1
	stag := make([]uint64, n)

	bodies := make([]func(*sim.CPU), n)
	for i := range bodies {
		bodies[i] = threadBody(s, rc, t.Threads[i], regs[i], addrs)
	}
	race := func(c *sim.CPU) {
		c.Cycles(stag[c.ID()])
		bodies[c.ID()](c)
	}
	reset := func(c *sim.CPU) {
		for i, a := range addrs {
			c.Store(a, mem.Word(init[i]))
		}
	}

	res := &Result{
		Test: t.Name, Runtime: rc.Label,
		Seed: opts.Seed, Iters: opts.Iters,
		Outcomes:  map[string]int{},
		FirstIter: map[string]int{},
	}
	allowed := Envelope(t, rc)
	res.Allowed = SortedOutcomes(allowed)

	for iter := 0; iter < opts.Iters; iter++ {
		s.M.Run(reset)
		// The reset ran on core 0 only; realign all core clocks so every
		// iteration starts the race from a common barrier and the noise
		// streams alone pick the interleaving.
		s.M.SyncClocks()
		for i := range stag {
			stag[i] = uint64(srng.Int63n(stagMax))
		}
		for i := range regs {
			for j := range regs[i] {
				regs[i][j] = 0
			}
		}
		order = order[:0]
		if s.Prof != nil {
			s.Prof.Reset()
		}
		s.Parallel(n, race)

		vars := make([]uint64, len(addrs))
		for i, a := range addrs {
			vars[i] = uint64(s.M.Mem.Load(a))
		}
		out := t.outcome(regs, vars)
		rec := IterRecord{Outcome: out, Order: string(order)}
		res.Trace = append(res.Trace, rec)
		if res.Outcomes[out] == 0 {
			res.FirstIter[out] = iter
		}
		res.Outcomes[out]++
		if !allowed[out] {
			v := Violation{
				Test: t.Name, Runtime: rc.Label,
				Seed: opts.Seed, Iter: iter,
				Outcome: out, Order: rec.Order,
				Allowed: res.Allowed,
			}
			if s.Prof != nil {
				var b strings.Builder
				s.Prof.Profile().WriteDump(&b)
				v.Dump = b.String()
			}
			if dir := os.Getenv("LITMUS_DUMP_DIR"); dir != "" {
				if _, err := v.SaveDump(dir); err != nil {
					fmt.Fprintln(os.Stderr, "litmus: cannot save flight dump:", err)
				}
			}
			res.Violations = append(res.Violations, v)
			if len(res.Violations) >= opts.MaxViolations {
				res.Iters = iter + 1
				break
			}
		}
	}
	res.Stats = s.TotalStats()
	res.Cycles = s.M.SyncClocks()
	return res
}

// Replay reruns iterations 0..iter of the given seed and returns what
// iteration iter observed — the workflow a Violation message points at.
func Replay(t *Test, rc RuntimeConfig, opts ExploreOptions, iter int) IterRecord {
	opts.Iters = iter + 1
	// Do not stop early: the violation being replayed must be reached.
	opts.MaxViolations = iter + 2
	r := Explore(t, rc, opts)
	return r.Trace[iter]
}

// threadBody compiles one thread program against the stack. Register state
// is snapshotted before each atomic block and restored at the top of the
// body closure: runtimes re-execute bodies on abort, retry, and fallback
// transitions, and the restore makes re-execution idempotent.
func threadBody(s *asfstack.Stack, rc RuntimeConfig, th Thread, regs []uint64, addrs []mem.Addr) func(*sim.CPU) {
	return func(c *sim.CPU) {
		for _, b := range th {
			if !b.Atomic {
				for _, op := range b.Ops {
					runPlainOp(c, op, regs, addrs)
				}
				continue
			}
			block := b
			snap := append([]uint64(nil), regs...)
			s.RT.Atomic(c, func(tx tm.Tx) {
				if rc.ForceSerial {
					if irr, ok := tx.(tm.Irrevocably); ok {
						irr.BecomeIrrevocable()
					}
				}
				copy(regs, snap)
				for _, op := range block.Ops {
					runTxOp(tx, op, regs, addrs)
				}
			})
		}
	}
}

func runTxOp(tx tm.Tx, op Op, regs []uint64, addrs []mem.Addr) {
	switch op.Kind {
	case OpLoad:
		regs[op.Reg] = uint64(tx.Load(addrs[op.Var]))
	case OpStore:
		v := op.Imm
		if op.FromReg {
			v = regs[op.Reg] + op.Imm
		}
		tx.Store(addrs[op.Var], mem.Word(v))
	}
}

func runPlainOp(c *sim.CPU, op Op, regs []uint64, addrs []mem.Addr) {
	switch op.Kind {
	case OpLoad:
		regs[op.Reg] = uint64(c.Load(addrs[op.Var]))
	case OpStore:
		v := op.Imm
		if op.FromReg {
			v = regs[op.Reg] + op.Imm
		}
		c.Store(addrs[op.Var], mem.Word(v))
	}
}
