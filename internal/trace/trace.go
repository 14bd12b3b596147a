// Package trace performs the offline cycle-breakdown analysis of the
// paper's methodology (§5). A traced measured phase is a Run: the sim
// trace's category switches plus the tm.TxEvent stream the runtimes report,
// per core. Analyze replays the category switches into per-category cycle
// counts and moves every aborted attempt's cycles into the abort/restart
// bucket wholesale; WriteChrome renders a Run for Chrome/Perfetto.
//
// The result must agree with the simulator's online accounting; the tests
// cross-validate the two, which is exactly the redundancy the paper built
// by keeping the statistics path out of the measured execution.
package trace

import (
	"fmt"

	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Run is one traced measured phase. It implements tm.TxProfiler by
// appending, so a stack installs it next to the flight recorder.
type Run struct {
	// Start is the cycle the phase began at (every core's clock was
	// synchronised there); no event of the run is earlier.
	Start uint64
	// Events are the sim trace events: category switches and cohort seal
	// and turbo points, per-core chronological, cores concatenated.
	Events []sim.TraceEvent
	// Tx holds every transaction event, per core, in recording order.
	Tx [][]tm.TxEvent
}

// NewRun returns an empty run of cores cores starting at cycle start.
func NewRun(cores int, start uint64) *Run {
	return &Run{Start: start, Tx: make([][]tm.TxEvent, cores)}
}

// Record implements tm.TxProfiler. Called only from core's own goroutine.
func (r *Run) Record(core int, ev tm.TxEvent) { r.Tx[core] = append(r.Tx[core], ev) }

// CoreBreakdown is the analysis result for one core.
type CoreBreakdown struct {
	Core      int
	Breakdown sim.Breakdown
	Commits   uint64
	Aborts    uint64
}

// Analyze replays run into per-core breakdowns, one per entry of ends
// (ends[i] is core i's final clock). Category segments come from
// run.Events; each TxEvAbort at time T moves [T-Cycles, T) into
// sim.CatAbort; commit and abort counts come from run.Tx. Time running
// backwards, an event from a core with no end time, and overlapping aborted
// attempts are errors.
//
// A core with no events still ran: its whole window was spent in the
// starting category (non-instr, the state SyncClocks leaves every core in),
// so it gets a breakdown charging run.Start..ends[i] there rather than
// being dropped from the result.
func Analyze(run *Run, ends []uint64) ([]CoreBreakdown, error) {
	perCore := make([][]sim.TraceEvent, len(ends))
	for _, e := range run.Events {
		if e.Core < 0 || e.Core >= len(ends) {
			return nil, fmt.Errorf("trace: core %d has no end time", e.Core)
		}
		perCore[e.Core] = append(perCore[e.Core], e)
	}
	for core, txs := range run.Tx {
		if core >= len(ends) && len(txs) > 0 {
			return nil, fmt.Errorf("trace: core %d has no end time", core)
		}
	}
	out := make([]CoreBreakdown, 0, len(ends))
	for core, evs := range perCore {
		var txs []tm.TxEvent
		if core < len(run.Tx) {
			txs = run.Tx[core]
		}
		cb, err := analyzeCore(core, evs, txs, run.Start, ends[core])
		if err != nil {
			return nil, err
		}
		out = append(out, cb)
	}
	return out, nil
}

// segment is a stretch of one core's time spent in one category.
type segment struct {
	from, to uint64
	cat      sim.Category
}

func analyzeCore(core int, evs []sim.TraceEvent, txs []tm.TxEvent, start, end uint64) (CoreBreakdown, error) {
	cb := CoreBreakdown{Core: core}
	backwards := func(from, to uint64) error {
		return fmt.Errorf("trace: core %d time went backwards (%d -> %d)", core, from, to)
	}

	var segs []segment
	cur, lastT := sim.CatNonInstr, start
	charge := func(until uint64) error {
		if until < lastT {
			return backwards(lastT, until)
		}
		if until > lastT {
			segs = append(segs, segment{lastT, until, cur})
			cb.Breakdown[cur] += until - lastT
		}
		lastT = until
		return nil
	}
	for _, e := range evs {
		if err := charge(e.Time); err != nil {
			return cb, err
		}
		if e.Kind == sim.TraceCategory {
			cur = sim.Category(e.Arg)
		}
	}
	if err := charge(end); err != nil {
		return cb, err
	}

	// Aborted attempts: move each window [T-Cycles, T) into the abort
	// bucket, as sim.CPU.MoveToAbort did online.
	lastT, prevAbort, s := start, start, 0
	for _, ev := range txs {
		if ev.Time < lastT || ev.Time > end {
			return cb, backwards(lastT, ev.Time)
		}
		lastT = ev.Time
		switch ev.Kind {
		case tm.TxEvCommit:
			cb.Commits++
		case tm.TxEvAbort:
			if ev.Cycles > ev.Time-prevAbort {
				return cb, fmt.Errorf("trace: core %d aborted attempt of %d cycles ending at %d overlaps the previous one (or the phase start) at %d",
					core, ev.Cycles, ev.Time, prevAbort)
			}
			from := ev.Time - ev.Cycles
			prevAbort = ev.Time
			cb.Aborts++
			for s < len(segs) && segs[s].to <= from {
				s++
			}
			for _, sg := range segs[s:] {
				if sg.from >= ev.Time {
					break
				}
				if sg.cat != sim.CatAbort {
					d := min(sg.to, ev.Time) - max(sg.from, from)
					cb.Breakdown[sg.cat] -= d
					cb.Breakdown[sim.CatAbort] += d
				}
			}
		}
	}
	return cb, nil
}

// Total sums the per-core breakdowns.
func Total(cbs []CoreBreakdown) sim.Breakdown {
	var t sim.Breakdown
	for _, cb := range cbs {
		t = t.Add(cb.Breakdown)
	}
	return t
}
