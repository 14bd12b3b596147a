package harness

import (
	"fmt"

	"asfstack/internal/adaptive"
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

	stampMS := make([]slot[float64], len(adaptiveApps)*nR*nT)
	stampSer := make([]slot[uint64], len(adaptiveApps)*nR*nT)
	var cells []cell
	for ai, app := range adaptiveApps {
		for ri, rt := range adaptiveRuntimes {
			for ti, th := range adaptiveThreads {
				dst := &stampMS[(ai*nR+ri)*nT+ti]
				ser := &stampSer[(ai*nR+ri)*nT+ti]
				cfg := stamp.Config{Options: o.spec(rt, th), App: app, Scale: scale}
				cells = append(cells, stampCell(fmt.Sprintf("adaptive %-14s %-13s t=%d", app, rt, th), cfg,
					func(r stamp.Result) (string, error) {
						dst.set(r.Millis())
						ser.set(r.Stats.Serial)
						return fmt.Sprintf("%.3fms", r.Millis()), nil
					}))
			}
		}
	}

	nI := len(adaptiveIntset)
	intThr := make([]slot[float64], nI*nR)
	intSer := make([]slot[uint64], nI*nR)
	var capLog slot[[]adaptive.Switch]
	for zi, se := range adaptiveIntset {
		for ri, rt := range adaptiveRuntimes {
			dst := &intThr[zi*nR+ri]
			ser := &intSer[zi*nR+ri]
			isCapAdaptive := se.structure == "linkedlist" && rt == "Adaptive-8"
			cfg := intset.Config{
				Options:   o.spec(rt, 8),
				Structure: se.structure, Range: uint64(2 * se.size), UpdatePct: 20, InitialSize: se.size,
				OpsPerThread: ops,
			}
			cells = append(cells, intsetCell(fmt.Sprintf("adaptive %-10s size=%-4d %-13s t=8", se.structure, se.size, rt), cfg,
				func(r intset.Result) (string, error) {
					dst.set(r.Throughput())
					ser.set(r.Stats.Serial)
					if isCapAdaptive {
						capLog.set(r.Switches)
					}
					return fmt.Sprintf("%.2f tx/us", r.Throughput()), nil
				}))
		}
	}
	err := runCells(cells, o)

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
				row = append(row, stampMS[(ai*nR+ri)*nT+ti].cell())
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
			row = append(row, intThr[zi*nR+ri].cell())
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
			bi, ok := -1, true
			for ri := 0; ri < ad; ri++ {
				s := stampMS[(ai*nR+ri)*nT+ti]
				if !s.ok {
					ok = false
					break
				}
				if bi < 0 || s.val < stampMS[(ai*nR+bi)*nT+ti].val {
					bi = ri
				}
			}
			a := stampMS[(ai*nR+ad)*nT+ti]
			label := fmt.Sprintf("%s t=%d", app, th)
			if !ok || !a.ok || bi < 0 {
				sum.Add(label, "ms", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
				continue
			}
			best := stampMS[(ai*nR+bi)*nT+ti].val
			gap := (best - a.val) / best * 100
			sum.Add(label, "ms", adaptiveRuntimes[bi], best, a.val, gap,
				stampSer[(ai*nR+bi)*nT+ti].val, stampSer[(ai*nR+ad)*nT+ti].val)
		}
	}
	for zi, se := range adaptiveIntset {
		bi, ok := -1, true
		for ri := 0; ri < ad; ri++ {
			s := intThr[zi*nR+ri]
			if !s.ok {
				ok = false
				break
			}
			if bi < 0 || s.val > intThr[zi*nR+bi].val {
				bi = ri
			}
		}
		a := intThr[zi*nR+ad]
		label := fmt.Sprintf("%s/%d", se.structure, se.size)
		if !ok || !a.ok || bi < 0 || intThr[zi*nR+bi].val == 0 {
			sum.Add(label, "tx/µs", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
			continue
		}
		best := intThr[zi*nR+bi].val
		gap := (a.val - best) / best * 100
		sum.Add(label, "tx/µs", adaptiveRuntimes[bi], best, a.val, gap,
			intSer[zi*nR+bi].val, intSer[zi*nR+ad].val)
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
	if capLog.ok {
		if len(capLog.val) == 0 {
			lg.Add("-", "-", "-", "no switches: start mode won every probe")
		}
		for _, e := range capLog.val {
			lg.Add(e.Cycle, e.From, e.To, e.Trigger)
		}
	} else {
		lg.Add("ERR", "ERR", "ERR", "ERR")
	}
	tables = append(tables, lg)
	return tables, err
}
