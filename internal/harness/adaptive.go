package harness

import (
	"fmt"

	"asfstack/internal/intset"
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
var adaptiveIntset = []intset.Config{sized("linkedlist", 510), sized("hashset", 8192)}

// Adaptive — E13: static runtime choice vs online selection. Reports STAMP
// execution times and IntegerSet throughput for each static runtime and the
// adaptive selector, a best-static-vs-adaptive summary with the selector's
// deficit (or gain), and the decision log for the capacity cell.
func Adaptive(o Options) ([]*Table, error) {
	// The IntegerSet cells run long enough that the selector's one-time
	// probe and switch transients amortize the way they would in any
	// long-running workload — the steady state is what static-vs-adaptive
	// compares; the per-transaction gate cost never amortizes and stays in
	// the measurement.
	ops := int(4800 * o.scale())
	var cells []cell
	for _, app := range adaptiveApps {
		for _, rt := range adaptiveRuntimes {
			for _, th := range adaptiveThreads {
				cells = append(cells, stampCell(fmt.Sprintf("adaptive %-14s %-13s t=%d", app, rt, th), o.stampCfg(app, rt, th)))
			}
		}
	}
	for _, set := range adaptiveIntset {
		for _, rt := range adaptiveRuntimes {
			cells = append(cells, intsetCell(fmt.Sprintf("adaptive %-10s size=%-4d %-13s t=8", set.Structure, set.Range/2, rt),
				o.intsetCfg(set, rt, 8, ops)))
		}
	}
	reps, err := runCells(cells, o)

	var tables []*Table
	for _, app := range adaptiveApps {
		t := &Table{
			Title:  fmt.Sprintf("E13 — runtime selection: %s (execution time, ms; lower is better)", app),
			Header: []string{"runtime", "4", "8"},
			Note:   "statics are the four runtimes Adaptive-8 switches among; Adaptive-8 picks online per phase",
		}
		t.grid(adaptiveRuntimes, len(adaptiveThreads), func(r, c int) any {
			return entry(find(reps, o.stampCfg(app, adaptiveRuntimes[r], adaptiveThreads[c])), ms)
		})
		tables = append(tables, t)
	}

	ih := []string{"runtime"}
	for _, set := range adaptiveIntset {
		ih = append(ih, fmt.Sprintf("%s/%d", set.Structure, set.Range/2))
	}
	it := &Table{
		Title:  "E13 — runtime selection: IntegerSet (8 threads, 20% update): throughput (tx/µs)",
		Header: ih,
	}
	it.grid(adaptiveRuntimes, len(adaptiveIntset), func(r, c int) any {
		return entry(find(reps, o.intsetCfg(adaptiveIntset[c], adaptiveRuntimes[r], 8, ops)), tput)
	})
	tables = append(tables, it)

	// Best-static vs adaptive: the acceptance evidence. For each cell,
	// the best static runtime's number, the adaptive number, the gap
	// (negative = adaptive behind best static), and both serial counts.
	sum := &Table{
		Title:  "E13 — best static vs adaptive, per cell",
		Header: []string{"cell", "metric", "best static", "value", "adaptive", "gap (%)", "static serial", "adaptive serial"},
		Note:   "gap: adaptive vs the best static for that cell (time reduction for STAMP, throughput gain for Intset); positive = adaptive ahead",
	}
	ad := len(adaptiveRuntimes) - 1 // Adaptive-8 is last in adaptiveRuntimes
	// cs holds one cell's reports, one per runtime in adaptiveRuntimes order.
	cs := make([]*CellReport, len(adaptiveRuntimes))
	for _, app := range adaptiveApps {
		for _, th := range adaptiveThreads {
			for ri, rt := range adaptiveRuntimes {
				cs[ri] = find(reps, o.stampCfg(app, rt, th))
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
	for _, set := range adaptiveIntset {
		for ri, rt := range adaptiveRuntimes {
			cs[ri] = find(reps, o.intsetCfg(set, rt, 8, ops))
		}
		label := fmt.Sprintf("%s/%d", set.Structure, set.Range/2)
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
	// The capacity cell is adaptiveIntset[0], the linked list, on Adaptive-8.
	switch capCell := find(reps, o.intsetCfg(adaptiveIntset[0], adaptiveRuntimes[ad], 8, ops)); {
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
