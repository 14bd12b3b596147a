package harness

import (
	"fmt"

	"asfstack/internal/intset"
	"asfstack/internal/stamp"
)

// adaptiveApps are the STAMP applications E13 runs: ssca2's tiny graph
// updates and genome's dedup/matching phases are hardware-friendly (the
// selector must find ASF-TM fast to stay near the best static), while
// kmeans-high's contended centroid updates sit between the hardware
// runtimes — the one STAMP cell where no static is safe a priori.
var adaptiveApps = []string{"ssca2", "kmeans-high", "genome"}

// adaptiveThreads: contention changes character between these two points,
// which is what gives the selector something to decide.
var adaptiveThreads = []int{4, 8}

// adaptiveRuntimes is the static field the selector competes against plus
// the selector itself (last). The statics are exactly the four inner
// runtimes the Adaptive-8 configuration switches among.
var adaptiveRuntimes = []string{"LLB-8", "HyTM-8", "STM", "Cohorts-turbo", "Adaptive-8"}

// adaptiveIntset are the E13 IntegerSet cells: the long linked list is the
// capacity cell (read sets far beyond the LLB-8; the selector must prune
// ASF-TM from abort attribution and keep the cell serial-free) and the
// hash set is the opposite pole — single-bucket transactions where pure
// hardware wins and the selector must find its way back to ASF-TM.
var adaptiveIntset = []struct {
	structure string
	size      int
}{
	{"linkedlist", 510},
	{"hashset", 8192},
}

// Adaptive — E13: static runtime choice vs online selection. Reports STAMP
// execution times and IntegerSet throughput for each static runtime and the
// adaptive selector, a best-static-vs-adaptive summary with the selector's
// deficit (or gain), and the decision log for the capacity cell.
func Adaptive(o Options) ([]*Table, error) {
	scale := o.scale()
	// The IntegerSet cells run long enough that the selector's one-time
	// probe and switch transients amortize the way they would in any
	// long-running workload — the steady state is what static-vs-adaptive
	// compares; the per-transaction gate cost never amortizes and stays in
	// the measurement.
	ops := int(4800 * o.scale())
	nR, nT := len(adaptiveRuntimes), len(adaptiveThreads)
	var cells []cell
	for _, app := range adaptiveApps {
		for _, rt := range adaptiveRuntimes {
			for _, th := range adaptiveThreads {
				cfg := stamp.Config{Options: o.spec(rt, th), App: app, Scale: scale}
				cells = append(cells, stampCell(fmt.Sprintf("adaptive %-14s %-13s t=%d", app, rt, th), cfg))
			}
		}
	}
	for _, se := range adaptiveIntset {
		for _, rt := range adaptiveRuntimes {
			cfg := intset.Config{
				Options:   o.spec(rt, 8),
				Structure: se.structure, Range: uint64(2 * se.size), UpdatePct: 20, InitialSize: se.size,
				OpsPerThread: ops,
			}
			cells = append(cells, intsetCell(fmt.Sprintf("adaptive %-10s size=%-4d %-13s t=8", se.structure, se.size, rt), cfg))
		}
	}
	reps, err := runCells(cells, o)
	stampR, intR := reps[:len(adaptiveApps)*nR*nT], reps[len(adaptiveApps)*nR*nT:]

	var tables []*Table
	for ai, app := range adaptiveApps {
		t := &Table{
			Title:  fmt.Sprintf("E13 — runtime selection: %s (execution time, ms; lower is better)", app),
			Header: []string{"runtime", "4", "8"},
			Note:   "statics are the four runtimes Adaptive-8 switches among; Adaptive-8 picks online per phase",
		}
		for ri, rt := range adaptiveRuntimes {
			row := []any{rt}
			for ti := range adaptiveThreads {
				row = append(row, entry(stampR[(ai*nR+ri)*nT+ti], ms))
			}
			t.Add(row...)
		}
		tables = append(tables, t)
	}

	ih := []string{"runtime"}
	for _, se := range adaptiveIntset {
		ih = append(ih, fmt.Sprintf("%s/%d", se.structure, se.size))
	}
	it := &Table{
		Title:  "E13 — runtime selection: IntegerSet (8 threads, 20% update): throughput (tx/µs)",
		Header: ih,
	}
	for ri, rt := range adaptiveRuntimes {
		row := []any{rt}
		for zi := range adaptiveIntset {
			row = append(row, entry(intR[zi*nR+ri], tput))
		}
		it.Add(row...)
	}
	tables = append(tables, it)

	// Best-static vs adaptive: the acceptance evidence. For each cell,
	// the best static runtime's number, the adaptive number, the gap
	// (negative = adaptive behind best static), and both serial counts.
	sum := &Table{
		Title:  "E13 — best static vs adaptive, per cell",
		Header: []string{"cell", "metric", "best static", "value", "adaptive", "gap (%)", "static serial", "adaptive serial"},
		Note:   "gap: adaptive vs the best static for that cell (time reduction for STAMP, throughput gain for Intset); positive = adaptive ahead",
	}
	ad := nR - 1 // Adaptive-8 is last in adaptiveRuntimes
	for ai, app := range adaptiveApps {
		for ti, th := range adaptiveThreads {
			cs := make([]*CellReport, nR) // this cell's runtimes
			for ri := range cs {
				cs[ri] = stampR[(ai*nR+ri)*nT+ti]
			}
			label := fmt.Sprintf("%s t=%d", app, th)
			bi, ok := bestStatic(cs, func(s *CellSim) float64 { return -ms(s) })
			if !ok {
				sum.Add(label, "ms", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
				continue
			}
			best, a := ms(cs[bi].Sim), ms(cs[ad].Sim)
			gap := (best - a) / best * 100
			sum.Add(label, "ms", adaptiveRuntimes[bi], best, a, gap, cs[bi].Sim.Stats.Serial, cs[ad].Sim.Stats.Serial)
		}
	}
	for zi, se := range adaptiveIntset {
		cs := intR[zi*nR : (zi+1)*nR]
		label := fmt.Sprintf("%s/%d", se.structure, se.size)
		bi, ok := bestStatic(cs, tput)
		if !ok || tput(cs[bi].Sim) == 0 {
			sum.Add(label, "tx/µs", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
			continue
		}
		best, a := tput(cs[bi].Sim), tput(cs[ad].Sim)
		gap := (a - best) / best * 100
		sum.Add(label, "tx/µs", adaptiveRuntimes[bi], best, a, gap, cs[bi].Sim.Stats.Serial, cs[ad].Sim.Stats.Serial)
	}
	tables = append(tables, sum)

	// The capacity cell's decision log: what the selector actually did.
	// The acceptance criterion (zero serial entries) falls out of the
	// abort-attribution prune: ASF-TM never gets probed once capacity
	// aborts dominate, so no transaction ever reaches the serial fallback.
	lg := &Table{
		Title:  "E13 — adaptive decision log: Intset:linkedlist/510 (8 threads)",
		Header: []string{"cycle", "from", "to", "trigger"},
		Note:   "probe = next candidate window; settle = exploit the best rate; reprobe = settled rate degraded",
	}
	switch capCell := intR[ad]; { // adaptiveIntset[0], the linked list, on Adaptive-8
	case capCell.Sim == nil:
		lg.Add("ERR", "ERR", "ERR", "ERR")
	case len(capCell.Sim.Switches) == 0:
		lg.Add("-", "-", "-", "no switches: start mode won every probe")
	default:
		for _, e := range capCell.Sim.Switches {
			lg.Add(e.Cycle, e.From, e.To, e.Trigger)
		}
	}
	tables = append(tables, lg)
	return tables, err
}

// bestStatic returns the index of the static runtime (all of cs but the
// last, the selector) with the highest score, and false when any of the
// cell's runtimes failed.
func bestStatic(cs []*CellReport, score func(*CellSim) float64) (int, bool) {
	bi := 0
	for ri, c := range cs {
		if c.Sim == nil {
			return 0, false
		}
		if ri < len(cs)-1 && score(c.Sim) > score(cs[bi].Sim) {
			bi = ri
		}
	}
	return bi, true
}
