// Package adaptive is the online runtime selector: a tm.Runtime that owns
// one instance of each concrete runtime — ASF-TM, HyTM, STM, Cohorts — and
// switches the active one at workload phase boundaries, using the per-
// reason abort-attribution counters the stack already keeps (PR 2) plus
// measured commit throughput.
//
// The motivation is the paper's own conclusion inverted: no single TM
// design point wins everywhere (ASF hardware is cheap per-transaction but
// capacity-fragile; software fallbacks trade per-op cost for concurrency —
// the frontier Ravi's "On the Cost of Concurrency in Transactional Memory"
// formalizes). Instead of choosing with a -runtime flag, the selector
// walks the frontier online.
//
// # Switch protocol
//
// All four runtimes are built over the same machine, heap, and (for the
// hardware-backed pair) the same ASF system, so committed state is just
// words in simulated memory — any runtime can pick up where another left
// off, provided no transaction is in flight during the change. Quiescence
// uses a Dekker-style gate in simulated memory (the simulator is
// sequentially consistent). The mode and the switch latch share one word
// (latch = a high bit), and liveness announcement is lazy, so the
// steady-state gate is ONE memory op per transaction — the combined
// mode+latch load:
//
//   - a core entering Atomic marks its per-core live word (only if not
//     already marked — the mark survives across back-to-back
//     transactions), then loads the combined word: latch clear means the
//     load is the current mode and any switcher (whose CAS follows this
//     load in the SC order) will wait on the live word; latch set means a
//     switch is draining — retract the live word and spin;
//   - the live word is retracted only at quiescent points: parking on the
//     latch, performing a switch, or a cooperative idle hint
//     (sim.CPU.IdleHint — called from barrier spins and thread exit) so a
//     draining switch never waits on a core parked in non-transactional
//     code;
//   - the switching core CASes the latch bit into the combined word,
//     waits until every live word is clear — in-flight transactions
//     drain; new arrivals park at the gate; lazily-announced idle cores
//     retract at their next gate check or idle hint — then stores the new
//     mode, which atomically clears the latch and publishes the mode.
//
// # Policy: classify, probe, then exploit
//
// Windows are counted in commits (so window rates are comparable) and
// evaluated under the global turn. The start mode is HyTM — never the
// fastest by much, never catastrophic, serial-free on capacity-bound
// cells, and the richest signal source: its first window yields a commit
// rate, a capacity-abort rate, and the share of commits that needed the
// software fallback, all at once. That window *classifies* the phase and
// picks the probe candidates, instead of probing every runtime blindly:
//
//   - capacity-bound (high capacity-abort rate or software-fallback
//     share): ASF-TM is pruned — its serial-irrevocable convoy is the
//     known loser there, and pruning it is what keeps the cell free of
//     serial commits — and only the software modes (STM, Cohorts) are
//     probed against the incumbent;
//   - hardware-friendly (fallback share below hwFriendly): the software
//     modes cannot beat a hardware path that already commits everything,
//     so only ASF-TM is probed;
//   - mixed: every non-pruned runtime is probed.
//
// Probes are abandoned early: once a candidate has probeMin commits and
// its rate sits below abandonFrac of the best rate measured this round,
// the rest of its window is not worth buying. After the probes the
// selector settles on the highest-rate runtime and re-evaluates only on a
// sustained rate collapse (two consecutive exploitation windows below
// (1-revertDrop) of the settled rate), which re-opens probing — a phase
// change.
//
// Every switch is recorded ({cycle, from, to, trigger}); E13 prints the
// log for a representative cell.
package adaptive

import (
	"fmt"

	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Mode indices into the inner-runtime array. The order is fixed; stack
// construction must supply the runtimes in this order.
const (
	ModeASFTM = iota
	ModeHyTM
	ModeSTM
	ModeCohorts
	NumModes
)

// latchBit is the switch latch inside the combined mode word: set while a
// switching core drains the gate, cleared by the store that publishes the
// new mode. Mode indices stay far below it.
const latchBit mem.Word = 1 << 8

// Policy constants.
const (
	// startMode is the mode the selector begins in.
	startMode = ModeHyTM
	// capacityPrune and swSharePrune: observing a capacity-abort rate or a
	// software-fallback commit share above these in the starting window
	// removes ASF-TM from the probe candidates (its serial convoy is the
	// known loser on capacity-bound phases, and pruning it keeps the cell
	// serial-free).
	capacityPrune = 0.05
	swSharePrune  = 0.30
	// hwFriendly: a starting-window software-fallback share at or below
	// this classifies the phase as hardware-friendly, and only ASF-TM is
	// probed (the software modes cannot beat a hardware path that already
	// commits everything).
	hwFriendly = 0.05
	// probeWarmup: the first commits of every probe window are discarded
	// before the rate clock starts — a mode switch leaves the caches cold
	// for the incoming runtime's metadata, and the transient would bias
	// every probe toward whichever candidate happens to run last.
	probeWarmup = 16
	// probeMin and abandonFrac: a probe with at least probeMin post-warmup
	// commits whose rate is below abandonFrac of the round's best measured
	// rate is abandoned without finishing its window.
	probeMin    = 40
	abandonFrac = 0.8
	// revertDrop: an exploitation window whose commit rate falls below
	// (1-revertDrop) times the settled rate counts toward re-probing; two
	// consecutive such windows trigger it.
	revertDrop = 0.30
)

// Config holds the selector's window sizes and its test rotation.
type Config struct {
	// ProbeWindow is the per-window commit count during probing;
	// ExploitWindow the (larger) count between re-evaluations after
	// settling.
	ProbeWindow   uint64
	ExploitWindow uint64
	// ForceRotate is a test knob: ignore the policy and rotate through all
	// modes, one switch per probe window — exercises the switch protocol
	// against every runtime pair under -race.
	ForceRotate bool
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{ProbeWindow: 128, ExploitWindow: 1024}
}

// Switch is one entry of the selector's decision log. The json tags are the
// machine-readable form the harness embeds in BenchReport cells (E13).
type Switch struct {
	Cycle   uint64 `json:"cycle"` // simulated time of the switch (switching core's clock)
	From    string `json:"from"`  // runtime labels
	To      string `json:"to"`
	Trigger string `json:"trigger"` // "probe", "settle rate=...", "reprobe", "rotate"
}

// Runtime implements tm.Runtime as a mode-switching wrapper over the four
// concrete runtimes.
type Runtime struct {
	m    *sim.Machine
	cfg  Config
	name string

	inner [NumModes]tm.Runtime

	// Simulated-memory gate: combined mode+latch word and per-core live
	// words (each alone on its line).
	modeAddr mem.Addr
	live     []mem.Addr

	// Per-core host state, each touched only by its own core's goroutine.
	depth     []int        // flat-nesting depth of Atomic calls
	active    []int        // inner runtime a core's current transaction runs on
	announced []bool       // live word currently set (lazy retract)
	prev      [][]tm.Stats // [core][mode] stats snapshot at last window flush

	// Controller state. Only mutated under sim.CPU.SpecOp (the global
	// turn), so plain host fields are race-free.
	ctl controller

	met selMetrics
}

// controller is the windowed policy state (all access under SpecOp).
type controller struct {
	mode     int      // current mode (mirrors the simulated mode word)
	win      tm.Stats // outcome deltas accumulated this window
	winStart uint64   // cycle the window opened (first contributor's clock)
	target   uint64   // commits that close the window

	probing    bool
	warmed     bool      // probe window past its discarded warmup commits?
	classified bool      // has the first window of this round picked candidates?
	cands      []int     // remaining probe candidates (modes)
	probeRate  []float64 // measured rate per mode this probe round (commits/kilocycle)
	pruned     [NumModes]bool

	settledRate float64
	slowWindows int

	switches []Switch
	pending  int // mode to switch to after the window flush; -1 = none
	pendTrig string
}

type selMetrics struct {
	switches    metrics.Counter
	windows     metrics.Counter
	modeCommits [NumModes]metrics.Counter
}

// SetMetrics registers the selector's instruments with reg.
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met.switches = reg.Counter("adaptive/switches")
	r.met.windows = reg.Counter("adaptive/windows")
	for i := 0; i < NumModes; i++ {
		r.met.modeCommits[i] = reg.Counter("adaptive/commits_" + r.inner[i].Name())
	}
}

// New builds the selector over the four inner runtimes (in Mode order:
// ASF-TM, HyTM, STM, Cohorts), laying its gate out in layout's space.
func New(m *sim.Machine, layout *mem.Layout, name string, inner [NumModes]tm.Runtime) *Runtime {
	cores := m.Config().Cores
	r := &Runtime{
		m:         m,
		cfg:       DefaultConfig(),
		name:      name,
		inner:     inner,
		depth:     make([]int, cores),
		active:    make([]int, cores),
		announced: make([]bool, cores),
		live:      make([]mem.Addr, cores),
		prev:      make([][]tm.Stats, cores),
	}
	base, end := layout.Region(uint64(1+cores) * mem.LineSize)
	m.Mem.Prefault(base, uint64(end-base))
	r.modeAddr = base
	for i := 0; i < cores; i++ {
		r.live[i] = base + mem.Addr(1+i)*mem.LineSize
		r.prev[i] = make([]tm.Stats, NumModes)
	}
	m.Mem.Store(r.modeAddr, startMode)
	// Quiescent-state subscription: barrier spins and thread exits call
	// CPU.IdleHint, which retracts the core's lazy live announcement so a
	// draining switch never waits on a core that is parked in
	// non-transactional code.
	m.SetIdleHook(r.retract)
	r.resetController()
	return r
}

// SetConfig replaces the configuration (before any transaction runs).
func (r *Runtime) SetConfig(cfg Config) {
	r.cfg = cfg
	r.resetController()
}

func (r *Runtime) resetController() {
	r.ctl = controller{
		mode:    int(r.m.Mem.Load(r.modeAddr) &^ latchBit),
		target:  r.cfg.ProbeWindow,
		probing: true,
		pending: -1,
	}
	r.ctl.probeRate = make([]float64, NumModes)
	for i := range r.ctl.probeRate {
		r.ctl.probeRate[i] = -1
	}
	// The starting mode's window doubles as its probe and classifies the
	// phase; the candidate list is built from its abort attribution.
}

// Name implements tm.Runtime.
func (r *Runtime) Name() string { return r.name }

// Stats implements tm.Runtime: the union of the work done across modes.
func (r *Runtime) Stats(core int) tm.Stats {
	var t tm.Stats
	for _, in := range r.inner {
		t.Add(in.Stats(core))
	}
	return t
}

// ResetStats implements tm.Runtime (measurement barrier): inner counters,
// window snapshots, and the decision log all restart.
func (r *Runtime) ResetStats() {
	for _, in := range r.inner {
		in.ResetStats()
	}
	for c := range r.prev {
		for m := range r.prev[c] {
			r.prev[c][m] = tm.Stats{}
		}
	}
	r.resetController()
}

// SetCommitHook implements tm.HookableRuntime by forwarding to every inner
// runtime (whichever is active notifies).
func (r *Runtime) SetCommitHook(h tm.CommitHook) {
	for _, in := range r.inner {
		in.(tm.HookableRuntime).SetCommitHook(h)
	}
}

// SetProfiler implements tm.ProfilableRuntime by forwarding to every inner
// runtime (whichever is active records).
func (r *Runtime) SetProfiler(p tm.TxProfiler) {
	for _, in := range r.inner {
		in.(tm.ProfilableRuntime).SetProfiler(p)
	}
}

// Switches returns the decision log. Barrier-only, like Stats.
func (r *Runtime) Switches() []Switch {
	if r.m.Running() {
		panic("adaptive: Switches while the machine is running; the log is barrier-only")
	}
	return r.ctl.switches
}

// Atomic implements tm.Runtime: pass the gate, delegate, account.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	id := c.ID()
	if r.depth[id] > 0 {
		// Flat nesting: stay on the runtime executing the outer block.
		r.depth[id]++
		r.inner[r.active[id]].Atomic(c, body)
		r.depth[id]--
		return
	}
	r.depth[id] = 1
	defer func() { r.depth[id] = 0 }()

	// Gate (Dekker with the latch bit of the combined word, sound under
	// the simulator's sequential consistency): announce liveness, then
	// load mode+latch in one op. Latch clear ⇒ any switcher's CAS follows
	// this load in the SC order, so it will wait on our live word and the
	// loaded mode is current for this transaction.
	//
	// The announcement is lazy: the live word stays set across
	// back-to-back transactions (the steady-state gate is the single
	// mode+latch load) and is retracted only when the core parks on the
	// latch, switches, or reaches a quiescent point (barrier spin, thread
	// exit — the sim.CPU.IdleHint subscription). While a core is
	// announced no switch can complete, so its cached announcement can
	// never hide a mode change.
	var mode int
	for {
		if !r.announced[id] {
			c.Store(r.live[id], 1)
			r.announced[id] = true
		}
		w := c.Load(r.modeAddr)
		if w&latchBit == 0 {
			mode = int(w)
			break
		}
		r.retract(c) // back out; a switch is draining
		c.Cycles(200)
	}
	r.active[id] = mode
	r.inner[mode].Atomic(c, body)

	r.afterTx(c, mode)
}

// retract clears the core's live word (idempotent). Any in-progress
// switch can then drain past this core.
func (r *Runtime) retract(c *sim.CPU) {
	id := c.ID()
	if r.announced[id] {
		c.Store(r.live[id], 0)
		r.announced[id] = false
	}
}

// afterTx runs outside the gate after each top-level commit: fold this
// core's outcome delta into the shared window (under the global turn) and,
// if that closed the window with a switch decision, perform the switch.
func (r *Runtime) afterTx(c *sim.CPU, mode int) {
	id := c.ID()
	// The core's own inner stats are safe to read on its own goroutine.
	cur := r.inner[mode].Stats(id)
	delta := cur
	delta.Sub(r.prev[id][mode])
	r.prev[id][mode] = cur

	target := -1
	trigger := ""
	now := c.Now()
	c.SpecOp(0, func() {
		ctl := &r.ctl
		if ctl.winStart == 0 {
			ctl.winStart = now
		}
		ctl.win.Add(delta)
		r.met.modeCommits[mode].Add(id, delta.Commits)
		if ctl.probing && !ctl.warmed && ctl.win.Commits >= probeWarmup {
			// Warmup over: restart the window so the measured rate is the
			// candidate's steady state, not its post-switch cold caches.
			ctl.warmed = true
			ctl.win = tm.Stats{}
			ctl.winStart = 0
			return
		}
		if ctl.pending >= 0 {
			return
		}
		if ctl.win.Commits < ctl.target && !r.abandonProbe(now) {
			return
		}
		target, trigger = r.evaluate(now)
		if target >= 0 {
			ctl.pending = target
			ctl.pendTrig = trigger
		}
	})
	if target >= 0 && target != mode {
		r.performSwitch(c, mode, target, trigger)
	} else if target >= 0 {
		// Same-mode decision (settled on the incumbent): no switch needed,
		// but the decision still goes in the log (From == To).
		now := c.Now()
		c.SpecOp(0, func() {
			r.ctl.pending = -1
			name := r.inner[mode].Name()
			r.ctl.switches = append(r.ctl.switches, Switch{
				Cycle: now, From: name, To: name, Trigger: trigger,
			})
		})
	}
}

// abandonProbe reports whether the current probe window is measurably a
// loser — classification has happened, the window has probeMin commits,
// and its rate sits below abandonFrac of the round's best measurement —
// so the rest of the window is not worth buying. Runs under the global
// turn.
func (r *Runtime) abandonProbe(now uint64) bool {
	ctl := &r.ctl
	if !ctl.probing || !ctl.warmed || !ctl.classified || ctl.win.Commits < probeMin ||
		ctl.winStart == 0 || now <= ctl.winStart {
		return false
	}
	best := -1.0
	for _, mr := range ctl.probeRate {
		if mr > best {
			best = mr
		}
	}
	if best <= 0 {
		return false
	}
	rate := float64(ctl.win.Commits) * 1000 / float64(now-ctl.winStart)
	return rate < abandonFrac*best
}

// evaluate closes a window and decides the next mode. Runs under the
// global turn. Returns -1 to keep going without a decision point.
func (r *Runtime) evaluate(now uint64) (target int, trigger string) {
	ctl := &r.ctl
	r.met.windows.Add(0, 1)
	elapsed := now - ctl.winStart
	if elapsed == 0 {
		elapsed = 1
	}
	rate := float64(ctl.win.Commits) * 1000 / float64(elapsed)
	attempts := float64(ctl.win.Attempts())
	capR := float64(ctl.win.Aborts[sim.AbortCapacity]) / attempts
	swShare := float64(ctl.win.SWCommits) / float64(max(ctl.win.Commits, 1))
	ctl.win = tm.Stats{}
	ctl.winStart = 0
	ctl.warmed = false

	if r.cfg.ForceRotate {
		return (ctl.mode + 1) % NumModes, "rotate"
	}

	if ctl.probing {
		ctl.probeRate[ctl.mode] = rate
		// Abort attribution prunes candidates: a capacity-bound phase
		// (observed from any window) never probes ASF-TM — its serial
		// convoy is the known loser and the only serial source.
		if capR > capacityPrune || swShare > swSharePrune {
			ctl.pruned[ModeASFTM] = true
		}
		if !ctl.classified {
			// The round's first window classifies the phase and picks the
			// candidates worth a probe window each.
			ctl.classified = true
			ctl.cands = ctl.cands[:0]
			switch {
			case ctl.pruned[ModeASFTM]:
				// Capacity-bound: only the software modes can compete.
				for _, mode := range [...]int{ModeHyTM, ModeSTM, ModeCohorts} {
					if mode != ctl.mode {
						ctl.cands = append(ctl.cands, mode)
					}
				}
			case ctl.mode == ModeHyTM && swShare <= hwFriendly:
				// Hardware-friendly: the fallback path is idle, so the
				// software modes cannot beat the incumbent — only the
				// cheaper pure-hardware runtime can.
				ctl.cands = append(ctl.cands, ModeASFTM)
			default:
				for mode := 0; mode < NumModes; mode++ {
					if mode != ctl.mode && !ctl.pruned[mode] {
						ctl.cands = append(ctl.cands, mode)
					}
				}
			}
		}
		for len(ctl.cands) > 0 {
			next := ctl.cands[0]
			ctl.cands = ctl.cands[1:]
			if ctl.pruned[next] || ctl.probeRate[next] >= 0 {
				continue
			}
			return next, "probe"
		}
		// Probe round complete: settle on the best measured rate.
		best, bestRate := ctl.mode, rate
		for mode, mr := range ctl.probeRate {
			if mr > bestRate {
				best, bestRate = mode, mr
			}
		}
		ctl.probing = false
		ctl.settledRate = bestRate
		ctl.slowWindows = 0
		ctl.target = r.cfg.ExploitWindow
		return best, fmt.Sprintf("settle rate=%.2f/kcyc", bestRate)
	}

	// Exploiting: watch for a sustained rate collapse (phase change).
	if rate < (1-revertDrop)*ctl.settledRate {
		ctl.slowWindows++
		if ctl.slowWindows >= 2 {
			// Re-open probing from the current mode. The collapsed rate is
			// the incumbent's entry (and the abandon baseline); the
			// candidate list is rebuilt here, so no re-classification.
			ctl.probing = true
			ctl.classified = true
			ctl.target = r.cfg.ProbeWindow
			for i := range ctl.probeRate {
				ctl.probeRate[i] = -1
			}
			ctl.probeRate[ctl.mode] = rate
			ctl.cands = ctl.cands[:0]
			for mode := 0; mode < NumModes; mode++ {
				if mode != ctl.mode && !ctl.pruned[mode] {
					ctl.cands = append(ctl.cands, mode)
				}
			}
			ctl.slowWindows = 0
			if len(ctl.cands) > 0 {
				next := ctl.cands[0]
				ctl.cands = ctl.cands[1:]
				return next, "reprobe"
			}
		}
	} else {
		ctl.slowWindows = 0
		// Track slow drift so a gradually improving phase re-anchors.
		if rate > ctl.settledRate {
			ctl.settledRate = rate
		}
	}
	return -1, ""
}

// performSwitch executes the quiescent mode change: take the latch, drain
// live transactions, flip the mode word, release, log.
func (r *Runtime) performSwitch(c *sim.CPU, from, to int, trigger string) {
	id := c.ID()
	r.retract(c) // the drain below must not wait on our own live word
	if _, ok := c.CAS(r.modeAddr, mem.Word(from), mem.Word(from)|latchBit); !ok {
		// Another core is mid-switch; our decision is stale. Drop it.
		c.SpecOp(0, func() { r.ctl.pending = -1 })
		return
	}
	for _, la := range r.live {
		for c.Load(la) != 0 {
			c.Cycles(200)
		}
	}
	// Publishes the mode and clears the latch in one store.
	c.Store(r.modeAddr, mem.Word(to))
	now := c.Now()
	c.SpecOp(0, func() {
		r.ctl.mode = to
		r.ctl.pending = -1
		if r.ctl.probing {
			r.ctl.target = r.cfg.ProbeWindow
		}
		r.ctl.switches = append(r.ctl.switches, Switch{
			Cycle:   now,
			From:    r.inner[from].Name(),
			To:      r.inner[to].Name(),
			Trigger: trigger,
		})
	})
	r.met.switches.Inc(id)
}
